"""Dense matrix algebra over field specs: elimination, ranks, nullspaces."""

import random

import numpy as np
import pytest

from codequiv import (GFMatrix, field, inverse, mat_mul, nullspace_basis, rank,
                      rref)

from conftest import reference_mat_mul, reference_rref


def test_mismatched_operands_refused():
    with pytest.raises(ValueError, match="field mismatch"):
        mat_mul(GFMatrix(field(3), [[1]]), GFMatrix(field(5), [[1]]))
    with pytest.raises(ValueError, match="inverse of a non-square matrix"):
        inverse(GFMatrix(field(3), [[1, 2]]))


def _random_matrix(spec, rows, cols, rng):
    return GFMatrix(spec, [[rng.randrange(spec.q) for _ in range(cols)]
                           for _ in range(rows)])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_rref_transform_invariant(q):
    spec = field(q)
    rng = random.Random(100 + q)
    for _ in range(25):
        a = _random_matrix(spec, rng.randrange(1, 5), rng.randrange(1, 6), rng)
        res = rref(a)
        assert mat_mul(res.transform, a) == res.rref
        assert res.rank == len(res.pivots)
        # pivots are strictly increasing and hold leading ones
        assert list(res.pivots) == sorted(set(res.pivots))
        for r, c in enumerate(res.pivots):
            col = res.rref.col(c)
            assert col[r] == 1 and all(v == 0 for i, v in enumerate(col) if i != r)


def test_rref_idempotent_and_rank():
    spec = field(3)
    a = GFMatrix(spec, [[1, 2, 0], [2, 1, 0], [0, 0, 1]])
    # rows 1,2 are dependent: 2*(1,2,0) = (2,1,0)
    assert rank(a) == 2
    r = rref(a).rref
    assert rref(r).rref == r


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_inverse(q):
    spec = field(q)
    rng = random.Random(7 * q)
    ident = GFMatrix.identity(spec, 3)
    found = 0
    while found < 10:
        a = _random_matrix(spec, 3, 3, rng)
        if rank(a) < 3:
            continue
        found += 1
        assert mat_mul(a, inverse(a)) == ident
        assert mat_mul(inverse(a), a) == ident
    singular = GFMatrix(spec, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        inverse(singular)


def test_nullspace_vectors_annihilate():
    rng = random.Random(11)
    for q in (2, 3, 4, 9):
        spec = field(q)
        for _ in range(20):
            a = _random_matrix(spec, rng.randrange(1, 5), rng.randrange(1, 7), rng)
            basis = nullspace_basis(a)
            assert len(basis) == a.ncols - rank(a)
            zero = [0] * a.nrows
            for v in basis:
                prod = [spec.dot(row, v) for row in a.rows]
                assert prod == zero


def test_nullspace_of_worked_scaling_system():
    """The 9-equation ternary system for the worked [6,3] pair's scalings:
    its solution space must be exactly the multiples of (1,2,1,2,1,2)."""
    spec = field(3)
    a = GFMatrix(spec, [
        [1, 1, 0, 0, 0, 0],   # l1 + l2 = 0
        [0, 1, 1, 0, 0, 0],   # l2 + l3 = 0
        [0, 1, 0, 2, 0, 0],   # l2 - l4 = 0
        [1, 2, 0, 0, 1, 0],   # l1 + 2 l2 - 2 l5 = 0
        [0, 2, 0, 0, 2, 0],   # 2 l2 - l5 = 0
        [0, 2, 0, 0, 2, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 2, 0, 0, 2],   # 2 l3 - l6 = 0
        [0, 0, 0, 0, 0, 0],
    ])
    basis = nullspace_basis(a)
    assert len(basis) == 1
    v = basis[0]
    scaled = {tuple(spec.mul(c, x) for x in v) for c in (1, 2)}
    assert (1, 2, 1, 2, 1, 2) in scaled


def test_matrix_shape_validation():
    spec = field(3)
    with pytest.raises(ValueError):
        GFMatrix(spec, [[1, 2], [1]])  # ragged
    with pytest.raises(ValueError):
        GFMatrix(spec, [[1, 3]])       # out of range
    a = GFMatrix(spec, [[1, 2], [0, 1]])
    b = GFMatrix(spec, [[1], [1]])
    assert mat_mul(a, b).rows == [[0], [1]]
    with pytest.raises(ValueError):
        mat_mul(b, a)  # inner dimensions disagree


def test_out_of_range_entry_is_named():
    # rows are range-checked whole; the message names the first bad entry
    spec = field(3)
    for rows, bad in (([[1, 3]], 3), ([[0, 1, 2], [2, 5, -1]], 5),
                      ([[1, -1, 7]], -1), ([[2, 2], [0, 1], [1, 9]], 9)):
        with pytest.raises(ValueError,
                           match=rf"^entry {bad} out of range for GF\(3\)$"):
            GFMatrix(spec, rows)
    assert GFMatrix(spec, [[], []]).ncols == 0


def test_non_integer_entries_refused():
    spec = field(3)
    with pytest.raises(ValueError, match="integers"):
        GFMatrix(spec, [[1.5, 0], [0, 1]])
    with pytest.raises(ValueError, match="integers"):
        GFMatrix(spec, [[1, 0], [0, 1.0]])
    # bools and NumPy integers are integers, stored as Python ints
    a = GFMatrix(spec, [[True, np.int64(2)], np.array([0, 1], dtype=np.uint8)])
    assert a.rows == [[1, 2], [0, 1]]
    assert all(type(e) is int for row in a.rows for e in row)


def test_from_columns_and_transpose():
    spec = field(5)
    cols = [[1, 2], [3, 4], [0, 1]]
    a = GFMatrix.from_columns(spec, cols)
    assert a.nrows == 2 and a.ncols == 3
    assert [list(c) for c in a.columns()] == cols
    assert a.transpose().rows == cols


# GF(2) to GF(27), and fields above 256: a prime, where an int64 product
# reduced mod p must stay exact, and composite fields of characteristic 2
# and odd characteristic (explicit moduli, as in test_gfield)
KERNEL_FIELDS = [(2, None), (3, None), (4, None), (5, None), (7, None),
                 (8, None), (9, None), (11, None), (13, None), (16, None),
                 (25, None), (27, None), (257, None), (512, 515), (729, 734),
                 (65521, None)]


def _random_rows(spec, rows, cols, rng):
    # a third of the entries 0, so that pivots are often missing
    return [[rng.randrange(spec.q) if rng.random() < 2 / 3 else 0
             for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("q,modulus", KERNEL_FIELDS)
def test_kernels_match_per_entry_reference(q, modulus):
    """mat_mul, rank, rref and nullspace_basis against the per-entry
    references of conftest, on seeded matrices of 1-7 rows and 0-7
    columns, an empty one and a wide one."""
    spec = field(q, modulus)
    rng = random.Random(q)
    shapes = [(rng.randrange(1, 8), rng.randrange(0, 8)) for _ in range(30)]
    shapes += [(12, 24), (0, 0), (5, 0)]
    for nrows, ncols in shapes:
        a_rows = _random_rows(spec, nrows, ncols, rng)
        if nrows > 2 and rng.random() < 0.5:
            # a row that is a combination of two others
            f = rng.randrange(1, q)
            a_rows[-1] = reference_mat_mul(spec, [[1, f]], a_rows[:2])[0]
        a = GFMatrix(spec, a_rows)
        b_rows = _random_rows(spec, ncols, rng.randrange(0, 8), rng)
        b = GFMatrix(spec, b_rows)
        assert mat_mul(a, b).rows == reference_mat_mul(spec, a_rows, b_rows)

        want_rref, want_pivots = reference_rref(spec, a_rows, ncols)
        res = rref(a)
        assert res.rref.rows == want_rref
        assert list(res.pivots) == want_pivots
        assert rank(a) == res.rank == len(want_pivots)
        assert reference_mat_mul(spec, res.transform.rows, a_rows) == want_rref
        assert rank(res.transform) == nrows

        basis = nullspace_basis(a)
        assert len(basis) == ncols - len(want_pivots)
        for v in basis:
            assert reference_mat_mul(spec, a_rows, [[x] for x in v]) == [
                [0]] * nrows
