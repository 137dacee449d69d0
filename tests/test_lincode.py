"""Generator matrices, characteristic vectors, and code utilities."""

import hashlib
import random

import numpy as np
import pytest

from codequiv import (CharacteristicVector, CodeFileError, GeneratorMatrix,
                      characteristic_vector, code_from_chi, emit_codes, field,
                      min_distance_hyperplane, parse_codes, point_table,
                      random_code, simplex_generator, theta)
from codequiv import projgeom
from codequiv.projgeom import MAX_INCIDENCE_CELLS
from conftest import (min_weight_exhaustive, reference_generator_rows,
                      reference_locate, reference_min_weight)


def _simplex_code(k, q):
    return GeneratorMatrix(q, simplex_generator(k, q).rows)


def test_worked_example_chi():
    """Columns of the worked [6,3] ternary matrix: points 1,2,2,9,13,5 in
    1-based table order, giving counts (1,2,0,0,1,0,0,0,1,0,0,0,1)."""
    g1 = GeneratorMatrix(3, [
        [1, 0, 0, 1, 2, 0],
        [0, 1, 0, 1, 1, 1],
        [0, 0, 1, 1, 1, 0],
    ])
    chi = characteristic_vector(g1)
    assert chi.counts == (1, 2, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1)
    assert chi.n == 6
    assert not chi.is_projective


@pytest.mark.parametrize("k,q", [(2, 3), (3, 2), (3, 3), (3, 4)])
def test_simplex_chi_all_ones(k, q):
    chi = characteristic_vector(_simplex_code(k, q))
    assert chi.counts == (1,) * theta(k - 1, q)
    assert chi.is_projective


def test_columns_are_normalized_on_construction():
    g = GeneratorMatrix(3, [[2, 0, 2], [0, 1, 1]])
    # column 1 = (2,0) normalizes to (1,0); column 3 = (2,1) to (1,2)
    assert g.mat.rows == [[1, 0, 1], [0, 1, 2]]


def test_generator_matrix_validation():
    with pytest.raises(ValueError) as exc:
        GeneratorMatrix(3, [[1, 0, 0], [0, 1, 0]])
    assert "column 3" in str(exc.value)  # zero column, 1-based diagnostics
    with pytest.raises(ValueError):
        GeneratorMatrix(3, [[1, 2, 0], [2, 1, 0]])  # rank 1 < k = 2
    with pytest.raises(ValueError):
        GeneratorMatrix(3, [])
    with pytest.raises(ValueError):
        GeneratorMatrix(3, [[1, 2], [1]])


def _code_text(spec, rows):
    """`rows` in the code file format, whatever their rank."""
    header = f"{spec.q} {len(rows)} {len(rows[0])}"
    if spec.m > 1:
        header += f" {spec.modulus}"
    return "\n".join([header] + [" ".join(map(str, r)) for r in rows]) + "\n"


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_reading_a_code_matches_the_old_construction(q):
    """GeneratorMatrix(spec, rows) and parse_codes of the same matrix give
    the rows of the old construction (`reference_generator_rows`), or raise
    its message, on random matrices: rows as drawn (not normalized), with a
    zero column, with a row a multiple of another (rank below k, or a zero
    column first), and with k > n."""
    spec = field(q)
    rng = random.Random(q)
    seen = set()
    for trial in range(80):
        kind = trial % 4
        k = rng.randint(2, 5)
        n = rng.randint(1, k - 1) if kind == 3 else rng.randint(k, 9)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if kind == 1:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        elif kind == 2:
            rows[-1] = spec.scale(rng.randrange(q), rows[0])
        text = _code_text(spec, rows)
        try:
            want = reference_generator_rows(spec, rows)
        except ValueError as e:
            seen.add(str(e).split()[0])
            with pytest.raises(ValueError) as got:
                GeneratorMatrix(spec, rows)
            assert str(got.value) == str(e)
            with pytest.raises(CodeFileError) as got:
                parse_codes(text)
            assert str(got.value) == f"line 1: invalid generator matrix: {e}"
            continue
        seen.add("ok")
        code = GeneratorMatrix(spec, rows)
        assert code.mat.rows == want and (code.k, code.n) == (k, n)
        assert [c.mat.rows for c in parse_codes(text)] == [want]
        assert parse_codes(emit_codes([code])) == [code]
    assert seen == {"ok", "column", "rank"}


@pytest.mark.parametrize("rows", [[], [[]], [[1, 2], [1]], [[1, 0], [0, 7]],
                                  [[1, -1]], [[1, 0.5]], [[1, 1.0]],
                                  [[1, "1"]]])
def test_constructor_refusals_match_the_old_construction(rows):
    """Rows the constructor's own checks refuse raise the old message."""
    spec = field(7)
    with pytest.raises(ValueError) as want:
        reference_generator_rows(spec, rows)
    with pytest.raises(ValueError) as got:
        GeneratorMatrix(spec, rows)
    assert str(got.value) == str(want.value)


def test_chi_roundtrip_through_code_from_chi():
    rng = random.Random(3)
    spec = field(3)
    for _ in range(50):
        code = random_code(spec, 8, 3, seed=rng.randrange(10 ** 6))
        chi = characteristic_vector(code)
        rebuilt = code_from_chi(spec, 3, chi.counts)
        assert characteristic_vector(rebuilt).counts == chi.counts


# over GF(3), k = 3: theta(2, 3) = 13 multiplicities, each a non-negative
# int (bools and NumPy ints pass as ints)
BAD_COUNTS = {
    "negative": (-1,) + (1,) * 12,
    "too few": (1, 1, 1),
    "too many": (1,) * 14,
    "fraction": (1.5,) + (1,) * 12,
    "integral float": (1.0,) + (1,) * 12,
    "string": ("1",) + (1,) * 12,
    "none": (None,) + (1,) * 12,
}


@pytest.mark.parametrize("case", sorted(BAD_COUNTS))
def test_invalid_multiplicity_vectors_refused(case):
    """A CharacteristicVector is checked once, on construction, so neither
    min_distance_hyperplane nor code_from_chi reads a vector that is no
    multiplicity vector: each raises ValueError, not a wrong distance or an
    IndexError."""
    spec, counts = field(3), BAD_COUNTS[case]
    with pytest.raises(ValueError):
        min_distance_hyperplane(CharacteristicVector(spec, 3, counts))
    with pytest.raises(ValueError):
        code_from_chi(spec, 3, counts)


def test_valid_multiplicity_vectors_kept_as_ints():
    spec = field(3)
    counts = (True, np.int64(2)) + (0,) * 10 + (1,)
    chi = CharacteristicVector(spec, 3, counts)
    assert chi.counts == (1, 2) + (0,) * 10 + (1,)
    assert all(type(c) is int for c in chi.counts)
    assert CharacteristicVector(spec, 3, (0,) * 13).n == 0
    assert min_distance_hyperplane(chi) == min_distance_hyperplane(
        characteristic_vector(code_from_chi(spec, 3, counts)))


def _with_repeats(spec, code, extra, rng):
    """`code` with `extra` more columns, each a nonzero multiple of one of
    its columns, all columns shuffled."""
    cols = code.columns()
    cols += [spec.scale(rng.randrange(1, spec.q), rng.choice(cols))
             for _ in range(extra)]
    rng.shuffle(cols)
    return GeneratorMatrix.from_columns(spec, cols)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_chi_and_min_distance_match_references(q):
    """On codes with repeated points, k = 2 and 3: the characteristic
    vector counts each column at its position in the table's points
    (conftest's `reference_locate`), and min_distance_hyperplane equals the
    least weight of a scan of all codewords."""
    spec = field(q)
    rng = random.Random(900 + q)
    for k, n in ((2, 4), (3, 5), (3, 6)):
        for seed in range(2):
            code = _with_repeats(spec, random_code(spec, n, k, seed=seed),
                                 3, rng)
            points, positions = reference_locate(code)
            assert len(points) < code.n
            counts = [0] * theta(k - 1, q)
            for coords, pos in zip(points, positions):
                counts[pos] = len(coords)
            chi = characteristic_vector(code)
            assert chi.counts == tuple(counts)
            assert min_distance_hyperplane(chi) == reference_min_weight(code)


def test_code_from_chi_validation():
    # counts that are no multiplicity vector: BAD_COUNTS above
    spec = field(3)
    with pytest.raises(ValueError, match="empty support"):
        code_from_chi(spec, 3, (0,) * 13)
    with pytest.raises(ValueError):
        # all mass on one point: rank 1 < 3
        code_from_chi(spec, 3, (4,) + (0,) * 12)


@pytest.mark.parametrize("q,n,k", [(2, 7, 3), (3, 6, 3), (3, 8, 2), (5, 6, 2)])
def test_min_distance_matches_exhaustive_search(q, n, k):
    spec = field(q)
    for seed in range(8):
        code = random_code(spec, n, k, seed=seed)
        chi = characteristic_vector(code)
        assert min_distance_hyperplane(chi) == min_weight_exhaustive(
            code.mat.rows, q)


def test_min_distance_beyond_the_incidence_bound():
    """A [30,14]_2 code: PG(13,2) has 16,383 points, so its incidence
    matrix (268,402,689 cells) is over the bound, but the incidence columns
    of the code's 30 points are all min_distance_hyperplane needs."""
    code = random_code(field(2), 30, 14, seed=5)
    assert len(point_table(14, 2)) ** 2 > MAX_INCIDENCE_CELLS
    assert min_distance_hyperplane(characteristic_vector(code)) == (
        min_weight_exhaustive(code.mat.rows, 2))


def test_min_distance_simplex_values():
    assert min_distance_hyperplane(
        characteristic_vector(_simplex_code(3, 3))) == 9
    assert min_distance_hyperplane(
        characteristic_vector(_simplex_code(3, 2))) == 4


def test_random_code_determinism_and_validity():
    spec = field(3)
    a = random_code(spec, 10, 3, seed=99)
    b = random_code(spec, 10, 3, seed=99)
    assert a.mat.rows == b.mat.rows
    c = random_code(spec, 10, 3, seed=100)
    assert a.mat.rows != c.mat.rows  # overwhelmingly likely, fixed seeds
    for seed in range(300):
        code = random_code(spec, 9, 3, seed=seed)
        assert code.k == 3 and code.n == 9  # constructor re-validated rank


def test_random_code_projective():
    spec = field(3)
    for seed in range(40):
        code = random_code(spec, 10, 3, seed=seed, projective=True)
        chi = characteristic_vector(code)
        assert chi.is_projective
    with pytest.raises(ValueError):
        random_code(spec, 14, 3, seed=0, projective=True)  # theta(2,3)=13 < 14
    with pytest.raises(ValueError):
        random_code(spec, 2, 3, seed=0)  # n < k


# sha256 over the codes of the sweep below, taken while random_code drew
# its columns from the built point table
RANDOM_CODE_SWEEP = (
    "43d8bc9f1e37d128c16cbda074347f3f34e5881040e9d858d584fa6cc157dbcb")


def test_random_code_sweep_pinned():
    """Drawing each column's table position and unranking it gives every
    seed the code it gave when the columns were read off the table; a
    draw that cannot reach rank k, or a projective one with too few points,
    raises the same error."""
    digest = hashlib.sha256()
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        for k in (1, 2, 3, 4):
            for n in range(k, k + 6):
                for projective in (False, True):
                    for seed in range(3):
                        try:
                            out = random_code(field(q), n, k, seed=seed,
                                              projective=projective).mat.rows
                        except ValueError as e:
                            out = str(e)
                        digest.update(repr((q, n, k, projective, seed,
                                            out)).encode())
    assert digest.hexdigest() == RANDOM_CODE_SWEEP


def test_random_code_builds_no_point_table(monkeypatch):
    # PG(5,25) has 10,172,526 points, past MAX_POINTS, and PG(3,27) 20,440
    monkeypatch.setattr(projgeom, "_TABLE_CACHE", {})
    code = random_code(field(25), 9, 6, seed=0)
    assert (code.n, code.k) == (9, 6)
    code = random_code(field(27), 7, 4, seed=0)
    assert (code.n, code.k) == (7, 4)
    assert projgeom._TABLE_CACHE == {}


def test_spec_or_q_accepts_both():
    via_q = GeneratorMatrix(4, [[1, 0, 2], [0, 1, 3]])
    via_spec = GeneratorMatrix(field(4), [[1, 0, 2], [0, 1, 3]])
    assert via_q.mat.rows == via_spec.mat.rows
    assert via_q.spec is via_spec.spec
