"""Equivalence decisions, monomial lifting, witnesses, automorphism groups,
and batch classification, cross-checked against GL brute-force oracles."""

import collections
import contextlib
import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import os
import random
import signal
import struct
import time
import tracemalloc
import types

import numpy as np
import pytest

from codequiv import (GFMatrix, GeneratorMatrix, build_ceimpg_matrix,
                      build_shortened, canonical_form, ceimpg_equiv,
                      cesimpg_equiv, characteristic_vector, classify,
                      code_aut_group, decide_equivalence, field, incidence,
                      point_table, random_code, rank, rref, serialize,
                      simplex_generator, theta, verify_witness)
from codequiv import (batch, bmcanon, equiv, lift, lincode, nullspace_basis,
                      projgeom)
from codequiv.bmcanon import (CanonResult, ColoredBinaryMatrix,
                              _sigma_from_canons, permute_columns)
from codequiv.equiv import MonomialTransform
from codequiv.lift import COSET_CAP
from codequiv.lincode import _locate
from codequiv.projgeom import codeword_weights
from codequiv.errors import BudgetExceededError, ResourceLimitError
from conftest import (brute_force_equivalent, brute_force_preserver_count,
                      iter_group, reference_codeword_weights, reference_locate,
                      reference_monomial_from_sigma, reference_pack_rows,
                      systematic_code)

G1_ROWS = [
    [1, 0, 0, 1, 2, 0],
    [0, 1, 0, 1, 1, 1],
    [0, 0, 1, 1, 1, 0],
]
G2_ROWS = [
    [1, 0, 0, 1, 1, 0],
    [0, 1, 0, 1, 2, 0],
    [0, 0, 1, 1, 0, 2],
]


def _random_transform(spec, n, rng, allow_rho=True):
    sigma = list(range(n))
    rng.shuffle(sigma)
    lambdas = tuple(rng.choice(spec.nonzero()) for _ in range(n))
    rho = rng.randrange(spec.m) if allow_rho else 0
    return MonomialTransform(spec, tuple(sigma), lambdas, rho)


def _transformed_pair(spec, n, k, seed, allow_rho=True):
    rng = random.Random(seed)
    c1 = random_code(spec, n, k, seed=seed)
    t = _random_transform(spec, n, rng, allow_rho)
    c2 = GeneratorMatrix(spec, t.apply(c1.mat).rows)
    return c1, c2


def _sharing_batch(count, q=3, n=8, k=3):
    """`count` [n,k]_q codes of which each shares its weight profile with
    another, so that `batch.classify` keys every one: seeded codes 0 to
    h - 1, h = count // 2, then a seeded monomial copy of each, in order,
    and for an odd count a second copy of code 0 last."""
    spec = field(q)
    rng = random.Random(count)
    bases = [random_code(spec, n, k, seed=s) for s in range(count // 2)]
    copies = [GeneratorMatrix(spec, _random_transform(spec, n, rng).apply(
        c.mat).rows) for c in bases + bases[:count % 2]]
    return bases + copies


# ---------------------------------------------------------------------------
# transform algebra


def test_transform_validation():
    spec = field(3)
    with pytest.raises(ValueError):
        MonomialTransform(spec, (0, 0), (1, 1), 0)  # not a permutation
    with pytest.raises(ValueError):
        MonomialTransform(spec, (0, 1), (1, 0), 0)  # zero scaling


def test_transform_rejects_scalings_rho_and_widths_out_of_range():
    spec = field(3)
    for lambdas in ((1, 3), (-1, 1)):  # not elements of GF(3)*
        with pytest.raises(ValueError):
            MonomialTransform(spec, (1, 0), lambdas)
    with pytest.raises(ValueError):
        MonomialTransform(spec, (1, 0), (1, 2), rho=1)  # GF(3) has m = 1
    with pytest.raises(ValueError):
        MonomialTransform(field(9), (1, 0), (1, 2), rho=-1)
    assert MonomialTransform(field(9), (1, 0), (1, 8), rho=1).rho == 1
    t = MonomialTransform(spec, (1, 0), (1, 2))
    with pytest.raises(ValueError):
        t.apply(GFMatrix(spec, [[1, 0, 2], [0, 1, 1]]))  # 3 columns, not 2
    assert t.apply(GFMatrix(spec, [[1, 2]])) == GFMatrix(spec, [[2, 2]])


def test_transform_refuses_non_integers_and_verify_witness_says_false():
    spec = field(9)
    for sigma, lambdas, rho in (((1, 0), (1, 2.0), 0), ((1, 0), (1, 2), 0.5),
                                ((1.0, 0), (1, 2), 0)):
        with pytest.raises(ValueError, match="integers"):
            MonomialTransform(spec, sigma, lambdas, rho)
    assert MonomialTransform(spec, (np.int64(1), 0), (True, np.uint8(8)),
                             np.int32(1)).rho == 1
    c = random_code(spec, 6, 2, seed=5)
    v = cesimpg_equiv(c, c)
    assert v.equivalent and verify_witness(c, c, v.witness)
    v.witness.rho = 0.5
    assert not verify_witness(c, c, v.witness)


def test_verify_witness_refuses_a_singular_or_misshapen_q():
    c1, c2 = _transformed_pair(field(5), 7, 3, seed=1, allow_rho=False)
    w = cesimpg_equiv(c1, c2).witness
    assert verify_witness(c1, c2, w)
    rows = [list(row) for row in w.q_matrix.rows]
    rows[2] = rows[0]
    for q in (GFMatrix(field(5), rows), GFMatrix(field(5), [[1, 0], [0, 1]])):
        w.q_matrix = q
        assert not verify_witness(c1, c2, w)


def test_decide_equivalence_unknown_algorithm():
    c = random_code(field(3), 6, 3, seed=0)
    with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
        decide_equivalence(c, c, "nope")


# ---------------------------------------------------------------------------
# matrices handed to the canonicalizer


def test_ceimpg_matrix_shape_and_colors():
    g1 = GeneratorMatrix(3, G1_ROWS)
    chi = characteristic_vector(g1)
    m = build_ceimpg_matrix(chi)
    t = theta(2, 3)
    assert (m.n_rows, m.n_cols) == (t, t)
    assert m.row_masks == incidence(3, 3).row_masks
    assert m.col_colors == chi.counts


def test_shortened_matrix_hand_row():
    """For the worked G1, whose coordinates 1 and 5 share a point, the
    hyperplane of (1,0,0) (table position 4) meets the coordinates in
    pattern 1,0,0,1,1,0, so its five points in pattern 1,0,0,1,1."""
    g1 = GeneratorMatrix(3, G1_ROWS)
    assert _locate(g1)[0] == [(0,), (1, 5), (2,), (3,), (4,)]
    m = build_shortened(g1)
    assert (m.n_rows, m.n_cols) == (13, 5)
    assert m.row_masks[4] == 0b10011
    assert m.col_colors == (1, 2, 1, 1, 1)


def _dot_nonzero(spec, u, x) -> int:
    acc = 0
    for a, b in zip(u, x):
        acc = spec.add(acc, spec.mul(a, b))
    return int(acc != 0)


def test_shortened_matrix_has_one_column_per_point():
    # on codes with repeated points, keyed on the code itself (2k <= n) and
    # on its dual (2k > n): `lincode._locate` partitions the coordinates
    # into distinct points in order of first appearance; column p of the
    # shortened matrix is the hyperplane support of the p-th point, colored
    # by its multiplicity, and no two columns are equal
    sides = set()
    for q, n, k in ((2, 8, 3), (3, 9, 3), (4, 8, 2), (5, 10, 3),
                    (2, 8, 6), (3, 8, 6), (4, 7, 5)):
        spec = field(q)
        for seed in range(6):
            side = equiv._side(random_code(spec, n, k, seed=seed))
            table = point_table(side.k, q)
            table_points = table.points
            counts = characteristic_vector(side).counts
            cols = side.columns()
            points = _locate(side)[0]
            assert sorted(j for coords in points
                          for j in coords) == list(range(n))
            firsts = [coords[0] for coords in points]
            assert firsts == sorted(firsts)
            assert len({cols[j] for j in firsts}) == len(points)
            m = build_shortened(side)
            assert (m.n_rows, m.n_cols) == (len(table), len(points))
            columns = [tuple(m.entry(i, p) for i in range(m.n_rows))
                       for p in range(m.n_cols)]
            assert len(set(columns)) == m.n_cols
            for p, coords in enumerate(points):
                assert list(coords) == sorted(coords)
                assert all(cols[j] == cols[coords[0]] for j in coords)
                assert m.col_colors[p] == len(coords) == counts[
                    table.position_of(cols[coords[0]])]
                point = cols[coords[0]]
                assert columns[p] == tuple(_dot_nonzero(spec, u, point)
                                           for u in table_points)
            if len(points) < n:
                sides.add("code" if side.k == k else "dual")
    assert sides == {"code", "dual"}


def test_library_paths_build_no_point_tuples(monkeypatch):
    """Locating the points of a [20,10]_3 code (PG(9,3), 29,524 points),
    its characteristic vector, shortened matrix, weights, distance and the
    code back from its multiplicities, and the span gate of the binary
    Golay code's minimum-weight rows, read the point tables' `coords` and
    rank points arithmetically: none reads `PointTable.points`."""
    reads = []
    monkeypatch.setattr(projgeom.PointTable, "points", property(
        lambda table: reads.append(table)))
    code = random_code(field(3), 20, 10, seed=0)
    rec = equiv._Side(code)
    assert rec.side is code
    assert (rec.points, rec.positions) == _locate(code)
    chi = characteristic_vector(code)
    assert [chi.counts[p] for p in rec.positions] == rec.mults
    assert rec.matrix.n_cols == len(rec.points) and min(rec.weights) > 0
    assert lincode.min_distance_hyperplane(chi) == min(rec.weights)
    assert characteristic_vector(lincode.code_from_chi(
        field(3), 10, chi.counts)) == chi
    assert equiv._Side(_binary_golay(24)).rows is not None
    assert reads == []


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_one_walk_and_one_weight_function_match_references(q):
    """A side's `points` and `positions` (`lincode._locate`), its
    characteristic vector and its shortened matrix match a lookup of each
    column in a dict of the table's points (conftest's `reference_locate`),
    and its weights, `projgeom.codeword_weights` of its bits, match the
    popcounted weights of its row masks (`reference_codeword_weights`): on
    [8,3] codes with repeated points, whose side is the code, and on their
    [8,5] duals, whose side is the [8,3] code's span.  Over GF(25) and
    GF(27) the shortened bits come from the dot kernel, else from the
    cached incidence."""
    spec = field(q)
    rng = random.Random(800 + q)
    seen, pairs = set(), 0
    for seed in range(50):
        cols = random_code(spec, 5, 3, seed=seed).columns()
        cols += [spec.scale(rng.randrange(1, q), rng.choice(cols))
                 for _ in range(3)]
        rng.shuffle(cols)
        primal = GeneratorMatrix.from_columns(spec, cols)
        basis = nullspace_basis(primal.mat)
        if not all(map(any, zip(*basis))):
            continue  # a weight-1 word gives the dual a zero column
        pairs += 1
        for code in (primal, GeneratorMatrix(spec, basis)):
            rec = equiv._Side(code)
            side = rec.side
            seen.add("primal" if side is code else "dual")
            points, positions = reference_locate(side)
            assert len(points) < side.n
            assert (rec.points, rec.positions) == (points, positions)
            counts = [0] * theta(side.k - 1, q)
            for coords, pos in zip(points, positions):
                counts[pos] = len(coords)
            assert characteristic_vector(side).counts == tuple(counts)
            table = point_table(side.k, q)
            m = build_shortened(side)
            table_points = table.points
            assert np.array_equal(m.bits, projgeom.nonzero_dot_bits(
                table, [table_points[p] for p in positions]))
            assert m.col_colors == tuple(map(len, points))
            assert rec.weights == codeword_weights(m.bits, m.col_colors) \
                == reference_codeword_weights(m.row_masks, m.col_colors)
        if pairs == 2:
            break
    assert pairs == 2 and seen == {"primal", "dual"}


def test_aut_group_generators_close_to_h1_order_with_repeated_points():
    # h1_generators (the point group's generators moved to coordinates, then
    # the transpositions of coordinates that share a point) generate a group
    # of order h1_order, on the code's own side and on the dual's
    repeated = 0
    for q, n, k in ((2, 7, 2), (3, 7, 3), (4, 6, 2), (3, 6, 4), (5, 6, 2)):
        for seed in range(5):
            code = random_code(q, n, k, seed=seed)
            rep = code_aut_group(code)
            assert rep.h1_order == sum(
                1 for _ in iter_group(rep.h1_generators, n))
            repeated += len(_locate(equiv._side(code))[0]) < n
    assert repeated >= 20


# ---------------------------------------------------------------------------
# lifting


def test_lift_on_worked_example():
    g1 = GeneratorMatrix(3, G1_ROWS)
    g2 = GeneratorMatrix(3, G2_ROWS)
    sigma = (0, 2, 3, 1, 4, 5)  # the 3-cycle moving coordinates 2->3->4->2
    target = lift.LiftTarget(g2)
    found = lift._lift(g1, target, sigma)
    assert found is not None
    rho, lambdas = found
    q_mat = equiv._witness(g1, target, sigma, rho, lambdas).q_matrix
    t = MonomialTransform(field(3), sigma, lambdas, 0)
    from codequiv.gfmatrix import mat_mul
    assert mat_mul(q_mat, g2.mat) == t.apply(g1.mat)


def test_lift_identity_on_self():
    spec = field(3)
    code = random_code(spec, 8, 3, seed=4)
    found = lift._lift(code, lift.LiftTarget(code), tuple(range(8)))
    assert found is not None
    _, lambdas = found
    assert all(l != 0 for l in lambdas)


def test_lift_shape_mismatch_raises():
    g1 = GeneratorMatrix(3, G1_ROWS)
    spec = field(3)
    with pytest.raises(ValueError):
        lift._lift(g1, lift.LiftTarget(random_code(spec, 6, 2, seed=0)),
                   tuple(range(6)))
    with pytest.raises(ValueError):
        lift._lift(g1, lift.LiftTarget(random_code(spec, 7, 3, seed=0)),
                   tuple(range(6)))


def test_simplex_lift_census_matches_gl_order():
    """Exhaustive over all 7! coordinate permutations of the [7,3] binary
    simplex: exactly |GL(3,2)| = 168 of them admit a monomial lift, since
    each invertible map realizes exactly one permutation here."""
    g = simplex_generator(3, 2)
    code = GeneratorMatrix(2, g.rows)
    target = lift.LiftTarget(code)
    count = 0
    for sigma in itertools.permutations(range(7)):
        if lift._lift(code, target, sigma) is not None:
            count += 1
    assert count == 168


def _direct_sum(spec, parts):
    """Block-diagonal generator matrix of the direct sum of `parts`."""
    n = sum(p.n for p in parts)
    rows, off = [], 0
    for p in parts:
        rows += [[0] * off + list(r) + [0] * (n - off - p.n) for r in p.mat.rows]
        off += p.n
    return GeneratorMatrix(spec, rows)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_lift_matches_linear_system_reference(q):
    """The support-graph walk returns exactly the lambdas of the nullspace
    search, and `equiv._witness` its Q, or None with it, for every rho: on
    the coset candidates of transformed pairs, on random permutations, and
    on direct sums whose support graph has several components."""
    spec = field(q)
    rng = random.Random(600 + q)
    codes = [random_code(spec, rng.randrange(5, 8), rng.randrange(2, 4),
                         seed=rng.randrange(10 ** 6)) for _ in range(5)]
    codes += [_direct_sum(spec, [random_code(spec, rng.randrange(2, 4), 1,
                                             seed=rng.randrange(10 ** 6)),
                                 random_code(spec, rng.randrange(3, 5), 2,
                                             seed=rng.randrange(10 ** 6))])
              for _ in range(3)]
    hits = misses = singular = 0
    for code in codes:
        n, k = code.n, code.k
        copy = GeneratorMatrix(spec, _random_transform(spec, n, rng).apply(
            code.mat).rows)
        gs1, gs2 = (systematic_code(c) for c in (code, copy))
        sigma0 = _shortened_sigma0(gs1, gs2, "pair")
        sigmas = [tuple(sigma0[t] for t in tau) for tau in itertools.islice(
            iter_group(code_aut_group(gs1).h1_generators, n), 24)]
        for _ in range(6):
            perm = list(range(n))
            rng.shuffle(perm)
            sigmas.append(tuple(perm))
        for g1, g2 in ((code, gs2), (gs1, gs1)):
            target = lift.LiftTarget(g2)
            for sigma in sigmas:
                sigma_inv = [sigma.index(s) for s in range(k)]
                lead = GFMatrix(spec, [[row[i] for i in sigma_inv]
                                       for row in g1.mat.rows])
                singular += rank(lead) < k
                for rho in range(spec.m):
                    found = lift._lift(g1, target, sigma, (rho,))
                    want = reference_monomial_from_sigma(g1, g2, sigma, rho)
                    assert found is None or found[0] == rho
                    got = found and (equiv._witness(
                        g1, target, sigma, *found).q_matrix.rows, found[1])
                    assert got == want, (sigma, rho)
                    hits += got is not None
                    misses += got is None
    assert hits and misses and singular


@pytest.mark.parametrize("q", [4, 8, 9, 27])
def test_lift_eliminates_once_for_every_rho(monkeypatch, q):
    """`_lift` returns exactly the first of its one-rho lifts over
    rho = 0..m-1, or None with them, and runs one `_eliminate` on a k x n
    matrix per candidate, whatever rho lifts.  That rests on a field
    automorphism applied entrywise commuting with Gauss-Jordan, checked
    here too.  The candidates are sigma0 composed with point-group elements
    on semilinear copies, the sigma of each copy's witness, and random
    permutations."""
    spec = field(q)
    rng = random.Random(q)
    real, shapes = lift._eliminate, []
    monkeypatch.setattr(lift, "_eliminate", lambda *a: shapes.append(
        (len(a[1]), len(a[1][0]))) or real(*a))
    lifted_by = []
    for seed in range(6):
        c1, c2 = _transformed_pair(spec, 7, 3, seed)
        s1, s2 = equiv._Side(c1), equiv._Side(c2)
        sigma0 = lift._coordinate_perm(
            bmcanon.is_isomorphic(s1.kept, s2.kept), s1.points, s2.points)
        taus = iter_group([lift._coordinate_perm(g, s1.points,
                                                         s1.points)
                                  for g in s1.form.generators], 7)
        sigmas = [tuple(sigma0[t] for t in tau)
                  for tau in itertools.islice(taus, 8)]
        sigmas += [cesimpg_equiv(c1, c2).witness.sigma]
        sigmas += [tuple(rng.sample(range(7), 7)) for _ in range(4)]
        target = lift.LiftTarget(c2)
        for sigma in sigmas:
            lifts = (lift._lift(c1, target, sigma, (rho,))
                     for rho in range(spec.m))
            want = next((found for found in lifts if found is not None), None)
            shapes.clear()
            got = lift._lift(c1, target, sigma)
            assert shapes == [(3, 7)]
            assert got == want, (seed, sigma)
            lifted_by.append(None if got is None else got[0])
            moved = [[row[i] for i in bmcanon._perm_inverse(sigma)]
                     for row in c1.mat.rows]
            for rho in range(1, spec.m):
                frob = spec.frobenius_table(rho)
                e1, e1_rho = [list(r) for r in moved], [[frob[x] for x in r]
                                                        for r in moved]
                pivots = target.red.pivots
                assert real(spec, e1_rho, pivots) == real(spec, e1, pivots)
                assert e1_rho == [[frob[x] for x in r] for r in e1]
    assert None in lifted_by and 0 in lifted_by
    assert any(rho for rho in lifted_by if rho is not None)


# ---------------------------------------------------------------------------
# decision procedures


def test_worked_example_pair(worked_pair):
    c1, c2 = worked_pair
    v = cesimpg_equiv(c1, c2)
    assert v.equivalent and v.method == "cesimpg"
    assert v.witness is not None
    assert verify_witness(c1, c2, v.witness)
    assert ceimpg_equiv(c1, c2).equivalent
    assert brute_force_equivalent(c1.mat.rows, c2.mat.rows, 3)


def _ceimpg_witnessed(monkeypatch, c1, c2):
    """ceimpg_equiv on an equivalent pair: its witness verifies, and where
    the incidence isomorphism it finds is a collineation (a side of
    dimension other than 2, or q <= 4) it lifts on the first candidate,
    one `lift._lift` call with no canonical form (`_Side.form`) built.
    Returns the verdict and its number of `lift._lift` calls."""
    with monkeypatch.context() as m:
        lifts = _counting(m, "_lift", module=lift)["_lift"]
        forms = _counting(m, "canonical_form")["canonical_form"]
        v = ceimpg_equiv(c1, c2)
    assert (v.equivalent, v.method) == (True, "ceimpg")
    assert verify_witness(c1, c2, v.witness)
    if equiv._side(c1).k != 2 or c1.q <= 4:
        assert len(lifts) == 1 and forms == []
    return v, len(lifts)


# the side of (3, 7, 4) is its dual, of dimension 3; the [n,2] shapes over
# q >= 5 have sides of dimension 2, where a first lift can fail
@pytest.mark.parametrize("q,n,k", [(2, 8, 3), (3, 8, 3), (5, 7, 2),
                                   (3, 7, 4), (3, 8, 2), (5, 8, 3),
                                   (7, 6, 2)])
def test_constructed_equivalences_prime(q, n, k, monkeypatch):
    spec = field(q)
    for seed in range(12):
        c1, c2 = _transformed_pair(spec, n, k, seed)
        v = cesimpg_equiv(c1, c2)
        assert v.equivalent
        assert verify_witness(c1, c2, v.witness)
        _ceimpg_witnessed(monkeypatch, c1, c2)


# [n, k] shapes per field: over GF(8), GF(9) and GF(25) ones of side
# dimension 2, where some first lifts fail and a frame's orbit is searched
SEMILINEAR_SHAPES = {4: [(6, 3), (7, 2)], 8: [(6, 3), (6, 2)],
                     9: [(6, 3), (7, 2)], 25: [(12, 2)]}


@pytest.mark.parametrize("q", [4, 9, 8, 25])
def test_constructed_equivalences_semilinear(q, monkeypatch):
    spec = field(q)
    for n, k in SEMILINEAR_SHAPES[q]:
        hit_rho = hit_rho_ceimpg = past_sigma0 = False
        for seed in range(12):
            c1, c2 = _transformed_pair(spec, n, k, seed)
            v = cesimpg_equiv(c1, c2)
            assert v.equivalent
            assert verify_witness(c1, c2, v.witness)
            hit_rho = hit_rho or v.witness.rho != 0
            w, lifts = _ceimpg_witnessed(monkeypatch, c1, c2)
            hit_rho_ceimpg = hit_rho_ceimpg or w.witness.rho != 0
            past_sigma0 = past_sigma0 or lifts > 1
        # at least one pair genuinely needed the field automorphism
        assert hit_rho and hit_rho_ceimpg
        assert past_sigma0 == (k == 2 and q >= 5)


@pytest.mark.parametrize("q", [8, 9, 25])
def test_semilinear_copies_of_the_projective_line(q):
    """The [q+1,2]_q code of every point of PG(1,q) has the point group
    Sym(q+1), 9! over GF(8) and past the coset cap over GF(9) and GF(25),
    but a frame of three points has at most (q+1)q(q-1) images: seeded
    copies, some by a nontrivial field automorphism, get verified
    witnesses on both routes (the point set is all of PG(1,q), so a linear
    map serves for each)."""
    spec = field(q)
    code = GeneratorMatrix(spec, simplex_generator(2, q).rows)
    rng = random.Random(q)
    for i in range(6):
        t = _random_transform(spec, q + 1, rng)
        t = MonomialTransform(spec, t.sigma, t.lambdas, i % spec.m)
        copy = GeneratorMatrix(spec, t.apply(code.mat).rows)
        for decide in (cesimpg_equiv, ceimpg_equiv):
            v = decide(code, copy)
            assert v.equivalent and verify_witness(code, copy, v.witness)


def test_verdicts_match_brute_force_small():
    rng = random.Random(2024)
    checked = equivalent_seen = inequivalent_seen = 0
    while checked < 60:
        q = rng.choice([2, 3])
        k = rng.randrange(1, 4)
        n = rng.randrange(max(k, 3), 7)
        spec = field(q)
        c1 = random_code(spec, n, k, seed=rng.randrange(10 ** 6))
        c2 = random_code(spec, n, k, seed=rng.randrange(10 ** 6))
        want = brute_force_equivalent(c1.mat.rows, c2.mat.rows, q)
        v = decide_equivalence(c1, c2, "auto")
        assert v.equivalent == want
        assert ceimpg_equiv(c1, c2).equivalent == want
        if v.equivalent:
            assert verify_witness(c1, c2, v.witness)
            equivalent_seen += 1
        else:
            inequivalent_seen += 1
        checked += 1
    assert equivalent_seen and inequivalent_seen  # both outcomes exercised


def test_both_routes_agree_on_random_pairs():
    spec = field(3)
    for seed in range(40):
        c1 = random_code(spec, 10, 3, seed=seed)
        c2 = random_code(spec, 10, 3, seed=seed + 10 ** 4)
        assert cesimpg_equiv(c1, c2).equivalent == ceimpg_equiv(c1, c2).equivalent


# (q, n, k): prime and composite fields, one high-rate shape (2k > n, keyed
# on the dual) and one with repeated points (n > theta(k-1, q))
PAIR_BATCH_SHAPES = [(3, 8, 3), (5, 7, 2), (4, 8, 3), (9, 9, 3), (3, 7, 4),
                     (2, 12, 3)]


@pytest.mark.parametrize("q,n,k", PAIR_BATCH_SHAPES)
def test_pair_decision_equals_batch_decision(q, n, k):
    """A pair decides through bmcanon.is_isomorphic (ceimpg) or a lift
    (cesimpg), a batch through key equality and lifts between bucket
    members: on seeded pairs, half of them transformed copies, and on
    inequivalent pairs sharing their weight profile, both agree, route by
    route."""
    spec = field(q)
    rng = random.Random(1700 + 100 * q + n)
    pairs = []
    for j in range(6):
        c1 = random_code(spec, n, k, seed=rng.randrange(10 ** 6))
        if j % 2 == 0:
            t = _random_transform(spec, n, rng)
            c2 = GeneratorMatrix(spec, t.apply(c1.mat).rows)
        else:
            c2 = random_code(spec, n, k, seed=rng.randrange(10 ** 6))
        pairs.append((c1, c2))
    pairs += [tuple(random_code(spec, n, k, seed=s) for s in seeds)
              for seeds in SHARED_PROFILE_SEEDS.get((q, n, k), ())]
    verdicts = set()
    for c1, c2 in pairs:
        for decide, algo in ((ceimpg_equiv, "ceimpg"),
                             (cesimpg_equiv, "cesimpg")):
            pair = decide(c1, c2).equivalent
            batch = len(classify([c1, c2], algo=algo).classes) == 1
            assert pair == batch, (algo, c1, c2)
            verdicts.add(pair)
    assert verdicts == {True, False}


def test_shape_mismatches_are_inequivalent():
    spec = field(3)
    a = random_code(spec, 8, 3, seed=1)
    b = random_code(spec, 9, 3, seed=1)
    c = random_code(spec, 8, 2, seed=1)
    assert not cesimpg_equiv(a, b).equivalent
    assert not ceimpg_equiv(a, c).equivalent
    with pytest.raises(ValueError):
        cesimpg_equiv(a, random_code(field(5), 8, 3, seed=1))


def test_self_equivalence():
    spec = field(3)
    c = random_code(spec, 9, 3, seed=123)
    v = cesimpg_equiv(c, c)
    assert v.equivalent and verify_witness(c, c, v.witness)


# ---------------------------------------------------------------------------
# weight profiles: the rejection before any canonical search


def _profile(code):
    """The weight profile that cesimpg_equiv compares for `code`: that of
    its side's shortened matrix."""
    m = build_shortened(equiv._side(code))
    return sorted(codeword_weights(m.bits, m.col_colors))


@pytest.fixture
def searches(monkeypatch):
    """The list of bmcanon._Search walks started during the test, those of
    canonical_form and of is_isomorphic alike; each keeps its `nodes`."""
    walked = []
    real = bmcanon._Search.walk

    def walk(search):
        walked.append(search)
        return real(search)

    monkeypatch.setattr(bmcanon._Search, "walk", walk)
    return walked


def test_weight_profile_kept_by_monomial_and_field_maps():
    """The profile is the weight distribution of the side's projective
    codewords, so equivalent codes share it: seeded semilinear copies with
    rho != 0 over GF(4), GF(8) and GF(9), high-rate pairs keyed on their
    duals, and codes with repeated points.  Each pair still gets a witness
    that verifies."""
    rng = random.Random(24)
    seen = set()
    for q, n, k in ((4, 8, 3), (8, 8, 3), (9, 9, 3), (2, 9, 6), (3, 7, 4),
                    (5, 7, 4), (5, 12, 2), (3, 14, 3), (4, 10, 2)):
        spec = field(q)
        for seed in range(4):
            c1 = random_code(spec, n, k, seed=seed)
            t = _random_transform(spec, n, rng)
            if spec.m > 1:
                t = MonomialTransform(spec, t.sigma, t.lambdas,
                                      rng.randrange(1, spec.m))
                seen.add("semilinear")
            c2 = GeneratorMatrix(spec, t.apply(c1.mat).rows)
            side = equiv._side(c1)
            if side.k == n - k < k:
                seen.add("dual")
            if len(_locate(side)[0]) < n:
                seen.add("repeated")
            cols = side.columns()
            assert _profile(c1) == sorted(
                sum(_dot_nonzero(spec, u, col) for col in cols)
                for u in point_table(side.k, q).points)
            assert _profile(c1) == _profile(c2)
            # `_Side.profile`, which both routes' batches compare first,
            # holds that distribution and the sorted multiplicities
            profile = equiv._Side(c1).profile
            assert profile == equiv._Side(c2).profile
            assert profile == (side is not c1, n, side.k, tuple(_profile(c1)),
                               tuple(sorted(map(len, _locate(side)[0]))))
            v = cesimpg_equiv(c1, c2)
            assert v.equivalent and verify_witness(c1, c2, v.witness)
    assert seen == {"semilinear", "dual", "repeated"}


def test_differing_profiles_skip_the_canonical_search(monkeypatch,
                                                      searches):
    """Independent pairs of the benchmark's equivalence shapes: every pair
    whose profiles differ is inequivalent without starting a single search,
    and ceimpg_equiv agrees.  A transformed copy takes the two searches of
    bmcanon.is_isomorphic, and no canonical_form, as its sigma0 lifts."""
    forms = _counting(monkeypatch, "canonical_form")["canonical_form"]
    rejected = 0
    for q, n, k in ((2, 15, 4), (3, 10, 3), (4, 12, 3), (5, 10, 3),
                    (7, 10, 3), (8, 10, 3), (9, 10, 3)):
        spec = field(q)
        for seed in range(4):
            c1, c2 = (random_code(spec, n, k, seed=s)
                      for s in (seed, seed + 100))
            if _profile(c1) == _profile(c2):
                continue
            v = cesimpg_equiv(c1, c2)
            assert (v.equivalent, v.method, v.witness) == (
                False, "cesimpg", None)
            assert searches == []
            assert not ceimpg_equiv(c1, c2).equivalent
            searches.clear()
            rejected += 1
    assert rejected == 27  # of 28 pairs
    assert forms == []
    c1, c2 = _transformed_pair(field(9), 10, 3, seed=1)
    assert cesimpg_equiv(c1, c2).equivalent
    assert len(searches) == 2 and forms == []


def _cross_ratio_code(lam):
    """The [4,2]_7 code of the points 0, infinity, 1 and lam of PG(1,7).  A
    hyperplane of PG(1,7) is a point, so it misses all four columns or
    three; the codes of a cross ratio of -1 (harmonic) and of 3 (a root of
    x^2 - x + 1) share their profile and their point group, Sym(4), but
    PGL(2,7) keeps cross ratios up to the six values of one orbit, so they
    are inequivalent."""
    return GeneratorMatrix(7, [[1, 0, 1, 1], [0, 1, 1, lam]])


def test_equal_profile_inequivalent_pairs_reach_the_search(monkeypatch,
                                                           searches):
    """Seeded inequivalent pairs that share a profile reach the isomorphism
    search and come out inequivalent, as ceimpg_equiv says (on the
    dimension-2 cross-ratio pair by its lift, on the others by its
    search), and as the GL oracle says where n <= 6 (GL(3,5), 1.5 million
    matrices, is left to ceimpg_equiv).  The exceptions are the
    two [6,3]_2 pairs: one code's minimum-weight words span it and the
    other's do not, so their kept matrices differ in shape and
    bmcanon.is_isomorphic refuses them before any search.  The [6,3]_5
    pairs and the cross-ratio pair share their shortened key too, so sigma0
    fails, the first side's form is built once, and every candidate lift is
    tried and fails; the others differ in it, and build no form."""
    forms = _counting(monkeypatch, "canonical_form")["canonical_form"]
    pairs = [(random_code(field(q), n, k, seed=a),
              random_code(field(q), n, k, seed=b))
             for q, n, k, a, b in ((2, 6, 3, 13, 25), (2, 6, 3, 13, 29),
                                   (5, 6, 3, 0, 1), (5, 6, 3, 4, 32),
                                   (5, 6, 3, 12, 38), (4, 8, 3, 2, 59),
                                   (8, 8, 3, 0, 4), (9, 9, 3, 1, 39),
                                   (2, 12, 4, 4, 25))]
    pairs.append((_cross_ratio_code(6), _cross_ratio_code(3)))
    oracle = 0
    for c1, c2 in pairs:
        assert _profile(c1) == _profile(c2)
        searches.clear()
        forms.clear()
        v = cesimpg_equiv(c1, c2)
        assert (v.equivalent, v.method, v.witness) == (False, "cesimpg", None)
        kept = [equiv._Side(c).kept for c in (c1, c2)]
        same_shape = len({(m.n_rows, m.n_cols) for m in kept}) == 1
        assert same_shape == ((c1.q, c1.n) != (2, 6))
        assert bool(searches) == same_shape
        shared_key = c1.q == 5 or c1.k == 2
        assert forms == (kept[:1] if shared_key else [])
        # on PG(1,7) the incidence is a matching, blind to cross ratios:
        # ceimpg_equiv finds an isomorphism of it, which does not lift
        assert not ceimpg_equiv(c1, c2).equivalent
        if c1.n <= 6 and c1.q ** (c1.k * c1.k) < 10 ** 5:
            assert not brute_force_equivalent(c1.mat.rows, c2.mat.rows, c1.q)
            oracle += 1
    assert oracle == 3


@pytest.mark.parametrize("n,k", [(6, 2), (8, 3), (10, 4), (12, 5), (12, 8)])
def test_binary_sigma0_lifts_past_coset_cap(n, k, monkeypatch):
    """For q = 2 the shortened rows are the codeword supports, so the first
    isomorphism between them always lifts: a coset cap of 1 never forces
    the fallback."""
    monkeypatch.setattr(lift, "COSET_CAP", 1)
    spec = field(2)
    for seed in range(8):
        c1, c2 = _transformed_pair(spec, n, k, seed)
        v = cesimpg_equiv(c1, c2)
        assert v.equivalent and v.method == "cesimpg"
        assert verify_witness(c1, c2, v.witness)


def _binary_golay(n):
    """The [23,12]_2 cyclic code of g = 1 + x^2 + x^4 + x^5 + x^6 + x^10 +
    x^11, or for n = 24 the same with the parity bit appended to the raw
    rows."""
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    rows = [[0] * s + g + [0] * (23 - len(g) - s) for s in range(12)]
    if n == 24:
        rows = [r + [sum(r) % 2] for r in rows]
    return GeneratorMatrix(field(2), rows)


def _golay_24_pair():
    """The binary Golay [24,12] code and a seeded monomial copy."""
    spec = field(2)
    c1 = _binary_golay(24)
    t = _random_transform(spec, 24, random.Random(24), allow_rho=False)
    return c1, GeneratorMatrix(spec, t.apply(c1.mat).rows)


def test_binary_golay_24_witnessed(monkeypatch):
    # over GF(2) sigma0 lifts, so no side is canonicalized and the point
    # group, |M24|, past the coset cap, is never read
    forms = _counting(monkeypatch, "canonical_form")["canonical_form"]
    c1, c2 = _golay_24_pair()
    v = cesimpg_equiv(c1, c2)
    assert v.equivalent and v.method == "cesimpg"
    assert verify_witness(c1, c2, v.witness)
    assert forms == []


def test_is_isomorphic_on_golay_rows_beats_one_canonical_form(searches):
    """On the Golay [24,12] code's 759 minimum-weight rows against those of
    a seeded copy, the first path of one tree and the walk of the other to
    the same certificate visit fewer nodes together than canonical_form of
    the copy alone."""
    m1, m2 = (equiv._Side(c).kept for c in _golay_24_pair())
    assert m1.n_rows == m2.n_rows == 759
    sigma = bmcanon.is_isomorphic(m1, m2)
    assert sigma is not None
    assert bmcanon.permute_columns(m1, sigma).row_multiset() == (
        m2.row_multiset())
    targeted = sum(s.nodes for s in searches)
    assert len(searches) == 2
    assert targeted < canonical_form(m2).nodes


def test_pair_decision_canonicalizes_only_when_sigma0_fails(monkeypatch):
    """cesimpg_equiv builds no canonical form where sigma0 lifts; on a
    [6,3]_5 pair whose sigma0 does not lift it builds the first side's form
    once, for its point group, and still gets a verified witness."""
    forms = _counting(monkeypatch, "canonical_form")["canonical_form"]
    c1, c2 = _transformed_pair(field(5), 6, 3, seed=4)
    assert not _sigma0_lifts(c1, c2, ["pair"])
    assert forms == []
    v = cesimpg_equiv(c1, c2)
    assert (v.equivalent, v.method) == (True, "cesimpg")
    assert verify_witness(c1, c2, v.witness)
    assert forms == [equiv._Side(c1).kept]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_searches_get_the_bits_of_their_masks(q):
    """The 0/1 arrays the searches read pack to exactly their matrices' row
    masks: a side's shortened matrix (`projgeom.incidence_columns`: for
    q <= 16, where theta <= 512, columns gathered from the cached
    incidence; over GF(25) and GF(27), theta 651 and 757, the dot kernel's
    output converted to 0/1, where over GF(p^m) it holds packed digits),
    its minimum-weight rows, and its ceimpg matrix, which shares the
    incidence's symmetric bits.  The shortened masks are those of the dot
    kernel's bits, and the weights read off the bits are the popcounted
    weights of the masks (conftest's `reference_codeword_weights`).
    Each field gives a primal [8,3] side and a dual [7,4] one, GF(2) also
    minimum-weight rows."""
    spec = field(q)
    codes = [random_code(spec, n, k, seed=s) for n, k in ((8, 3), (7, 4))
             for s in range(10 if q == 2 else 1)]
    seen = set()
    for code in codes:
        rec = equiv._Side(code)
        m, side = rec.matrix, rec.side
        seen |= {"dual" if side is not code else "primal",
                 "rows" if rec.rows is not None else "all"}
        cols = side.columns()
        assert list(m.row_masks) == reference_pack_rows(
            projgeom.nonzero_dot_bits(point_table(side.k, q),
                                      [cols[c[0]] for c in rec.points]))
        assert rec.weights == reference_codeword_weights(m.row_masks,
                                                         m.col_colors)
        ceimpg = build_ceimpg_matrix(characteristic_vector(side))
        assert ceimpg.bits is incidence(side.k, q).bits
        assert np.array_equal(ceimpg.bits, ceimpg.bits.T)
        for mat in (m, rec.rows, ceimpg):
            if mat is None:
                continue
            assert mat.bits.dtype == np.uint8 and mat.bits.max() <= 1
            assert mat.bits.shape == (mat.n_rows, mat.n_cols)
            assert reference_pack_rows(mat.bits) == list(mat.row_masks)
        if rec.rows is not None:
            low = min(rec.weights)
            assert rec.rows.row_masks == tuple(
                r for r, w in zip(m.row_masks, rec.weights) if w == low)
    assert {"dual", "primal", "all"} <= seen
    assert ("rows" in seen) == (q == 2)


@pytest.mark.parametrize("q", [2, 3, 7, 4, 8, 9, 25])
def test_shortened_bits_are_the_kernels(q):
    """A side's shortened bits, sliced out of the cached incidence when the
    geometry fits in one kernel block and run through the kernel otherwise,
    equal nonzero_dot_bits of its points: primal [8,3] and [6,2] sides and
    dual [7,4] ones.  Over GF(25), PG(2,25) has 651 points and takes the
    kernel, PG(1,25) the slice."""
    spec = field(q)
    seen = set()
    for n, k in ((8, 3), (6, 2), (7, 4)):
        for seed in range(3):
            code = random_code(spec, n, k, seed=seed)
            side = equiv._side(code)
            seen.add("dual" if side is not code else "primal")
            table = point_table(side.k, q)
            cols, points = side.columns(), _locate(side)[0]
            want = projgeom.nonzero_dot_bits(
                table, [cols[coords[0]] for coords in points])
            got = build_shortened(side).bits
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(equiv._Side(code).matrix.bits, want)
    assert seen == {"dual", "primal"}


def test_profile_stop_packs_no_masks_and_runs_no_kernel(monkeypatch):
    """A pair whose weight profiles differ is refused off its sides' bits:
    once the geometry's incidence is cached, neither side makes a matrix
    of them (`ColoredBinaryMatrix.from_bits`), so none packs its rows, and
    neither runs the dot kernel."""
    pairs = []
    for q, n, k, seed in ((3, 10, 3, 0), (2, 9, 6, 0), (9, 12, 3, 1)):
        c1, c2 = (random_code(field(q), n, k, seed=s)
                  for s in (seed, seed + 100))
        assert _profile(c1) != _profile(c2)  # and caches the incidence
        pairs.append((c1, c2))
    kernel = _counting(monkeypatch, "nonzero_dot_bits", "_nonzero_dot_blocks",
                       module=projgeom)
    wrapped, from_bits = [], ColoredBinaryMatrix.from_bits.__func__
    monkeypatch.setattr(ColoredBinaryMatrix, "from_bits", classmethod(
        lambda cls, bits, *a: wrapped.append(bits)
        or from_bits(cls, bits, *a)))
    for c1, c2 in pairs:
        assert not cesimpg_equiv(c1, c2).equivalent
    assert wrapped == [] and all(seen == [] for seen in kernel.values())


# ---------------------------------------------------------------------------
# binary sides canonicalized on their minimum-weight rows


@pytest.mark.parametrize("n,rows,order", [(24, 759, 244_823_040),
                                          (23, 506, 10_200_960)])
def test_binary_golay_keyed_on_minimum_weight_rows(n, rows, order):
    """[24,12] keeps its 759 words of weight 8 out of 4,095 rows; [23,12]
    is keyed by its dual, whose 506 words of weight 8 remain of 2,047.  The
    point group is that of the full matrix, and the orders are |M24| and
    |M23|."""
    code = _binary_golay(n)
    rec = equiv._Side(code)
    side = rec.side
    assert rec.rows is not None and rec.form.matrix.n_rows == rows
    assert rec.form.group_order == canonical_form(
        build_shortened(side)).group_order
    report = code_aut_group(code)
    assert report.complete and report.order == order
    form, error = batch._code_key(rec, "cesimpg")
    assert error is None and form is rec.form
    # keyed on the minimum-weight rows, of the dual for [23,12]
    assert form.n_rows == rows and rec.profile[0] == (side is not code)


@pytest.mark.parametrize("n,read", [(24, 78), (23, 57)])
def test_minimum_weight_span_is_read_from_the_end(monkeypatch, n, read):
    """The span check of `_Side.rows` reads the minimum-weight hyperplanes
    from the end of the point table, which lists last the points whose first
    coordinate is nonzero: the extended Golay code passes the gate after 78
    of its 759 rows, at most 100, and the [23,12] code, keyed by its dual,
    after 57 of 506.  The rows kept are all of them, in table order."""
    real, read_rows = equiv._spans_binary, []

    def spy(points, k):
        return real((read_rows.append(p) or p for p in points), k)

    monkeypatch.setattr(equiv, "_spans_binary", spy)
    rec = equiv._Side(_binary_golay(n))
    low = min(rec.weights)
    rows = [i for i, w in enumerate(rec.weights) if w == low]
    assert rec.rows is not None
    assert len(read_rows) == read <= 100
    assert np.array_equal(rec.rows.bits, rec.matrix.bits[rows])


# binary shapes where a fair share of random codes pass the gate; [7,4]
# codes are keyed by their [7,3] duals
MIN_WEIGHT_SHAPES = [(6, 2), (7, 3), (7, 4), (8, 4)]


def test_binary_min_weight_rows_keep_point_groups_and_partitions():
    """On seeded random binary codes, those whose minimum-weight words span
    get the point group of the full matrix from their minimum-weight rows,
    and a cesimpg form of those rows alone where the ceimpg one keeps all
    theta(k) rows; the cesimpg partition, with seeded monomial copies, is
    the ceimpg one."""
    spec = field(2)
    rng = random.Random(27)
    reduced = 0
    for n, k in MIN_WEIGHT_SHAPES:
        codes = [random_code(spec, n, k, seed=s) for s in range(40)]
        for code in codes:
            rec = equiv._Side(code)
            reduced_here = rec.rows is not None
            assert rec.form.group_order == canonical_form(
                build_shortened(rec.side)).group_order
            low = rec.weights.count(min(rec.weights))
            full = len(rec.weights)
            assert [batch._code_key(equiv._Side(code), mode)[0].n_rows
                    for mode in ("cesimpg", "ceimpg")] == [
                low if reduced_here else full, full]
            reduced += reduced_here
        codes += [GeneratorMatrix(spec, _random_transform(
            spec, n, rng, allow_rho=False).apply(c.mat).rows)
            for c in codes[::3]]
        partitions = [[c.members for c in classify(codes, algo=algo).classes]
                      for algo in ("ceimpg", "cesimpg")]
        assert partitions[0] == partitions[1]
    assert reduced >= 20


def test_min_weight_gate_refuses():
    """The gate is binary: the ternary Golay code keeps all 364 rows.  A
    binary code whose one minimum-weight word spans only a line keeps all
    3 rows too."""
    g = [2, 0, 1, 2, 1, 1]
    rows = [[0] * s + g + [0] * (11 - len(g) - s) for s in range(6)]
    golay12_3 = GeneratorMatrix(3, [r + [-sum(r) % 3] for r in rows])
    line = GeneratorMatrix(2, [[1, 1, 0, 0, 0], [0, 0, 1, 1, 1]])
    for code, n_rows in ((golay12_3, 364), (line, 3)):
        rec = equiv._Side(code)
        assert rec.side is code
        assert rec.rows is None and rec.form.matrix.n_rows == n_rows
        assert batch._code_key(rec, "cesimpg")[0].n_rows == n_rows


def test_dimension_two_past_the_coset_cap_is_a_budget_error(monkeypatch):
    """On a side of dimension 2 a sigma0 that does not lift goes to the
    orbit of a frame of three points, at most s(s-1)(s-2) tuples: at the
    real cap the pair gets a verified witness.  Only past a cap below that
    bound does the typed error stand, and no incidence matrix is read."""
    reads, forms = _incidence_use(monkeypatch)
    spec = field(5)
    for seed in range(10):
        c1, c2 = _transformed_pair(spec, 6, 2, seed, allow_rho=False)
        if canonical_form(build_shortened(c1)).group_order == 1 or (
                _sigma0_lifts(c1, c2, ["pair"])):
            continue
        v = cesimpg_equiv(c1, c2)
        assert v.equivalent and verify_witness(c1, c2, v.witness)
        monkeypatch.setattr(lift, "COSET_CAP", 1)
        with pytest.raises(BudgetExceededError,
                           match="sigma0 does not lift and the orbit bound"):
            cesimpg_equiv(c1, c2)
        break
    else:
        pytest.fail("no [6,2]_5 pair reaches the coset cap")
    assert reads == forms == []


@pytest.mark.parametrize("q,n,seed", [(q, n, seed) for q, n in ((41, 40),
                                                                 (19, 20))
                                        for seed in range(3)])
def test_large_dimension_two_pairs_witnessed(q, n, seed):
    """[40,2]_41 and [20,2]_19 transformed pairs: their point groups reach
    10^19, far past the coset cap, but a frame of three of at most 41
    points has at most 41*40*39 = 63,960 images, so each pair gets a
    verified witness, in well under a second of CPU, and the [20,2]_19
    seed-1 pair, which once streamed its point group for 24 s and 194 MB,
    traces under 16 MB."""
    c1, c2 = _transformed_pair(field(q), n, 2, seed, allow_rho=False)
    start = time.process_time()
    v = cesimpg_equiv(c1, c2)
    assert time.process_time() - start < 1
    assert (v.equivalent, v.method) == (True, "cesimpg")
    assert verify_witness(c1, c2, v.witness)
    if (q, seed) == (19, 1):
        tracemalloc.start()
        try:
            cesimpg_equiv(c1, c2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def _forced_past_sigma0(monkeypatch):
    """Make the first `lift._lift` of each `lift._find_lift` call, sigma0's,
    fail, so that every decision goes on to the frame orbit; returns the
    list of (s1, s2) records of each call."""
    real_lift, real_find, calls = lift._lift, lift._find_lift, []

    def find_lift(s1, s2, pi0):
        calls.append((s1, s2))
        first = []
        monkeypatch.setattr(lift, "_lift", lambda *a: None if not first
                            and not first.append(a) else real_lift(*a))
        try:
            return real_find(s1, s2, pi0)
        finally:
            monkeypatch.setattr(lift, "_lift", real_lift)

    for module in (equiv, batch):
        monkeypatch.setattr(module, "_find_lift", find_lift)
    return calls


@pytest.mark.parametrize("q,n,k", [(7, 6, 2), (5, 8, 2), (3, 6, 3),
                                   (3, 8, 3)])
def test_frame_orbit_verdicts_match_brute_force(q, n, k, monkeypatch):
    """With sigma0 made to fail, every pair that reaches a lift is decided
    by the orbit of a frame (or, on a side with none, of all its points)
    under the point group alone: on transformed copies, on [4,2] codes of
    two points, and on the pairs of 40 seeded codes that share a cesimpg
    class key, inequivalent ones among them on dimension 2, each verdict equals
    the GL oracle's, and each equivalent one carries a verified witness."""
    spec = field(q)
    pairs = [_transformed_pair(spec, n, k, seed) for seed in range(6)]
    if k == 2:
        two = [GeneratorMatrix(spec, [[1, 1, 0, 0], [0, 0, 1, a]])
               for a in (1, 2)]
        pairs += [(two[0], two[1]), (two[1], two[0])]
    codes = [random_code(spec, n, k, seed=s) for s in range(40)]
    by_key = {}
    for code in codes:
        rec = equiv._Side(code)
        key = batch._profile_key(rec.profile) + batch._code_key(
            rec, "cesimpg")[0].key()
        by_key.setdefault(key, []).append(code)
    pairs += [(same[0], c) for same in by_key.values() for c in same[1:]]
    calls = _forced_past_sigma0(monkeypatch)
    verdicts = set()
    for c1, c2 in pairs:
        calls.clear()
        v = cesimpg_equiv(c1, c2)
        want = brute_force_equivalent(c1.mat.rows, c2.mat.rows, q)
        assert v.equivalent == want
        assert not want or verify_witness(c1, c2, v.witness)
        verdicts.add((v.equivalent, bool(calls)))
    assert (True, True) in verdicts
    assert ((False, True) in verdicts) == (k == 2)


def test_decomposable_side_with_no_frame(monkeypatch):
    """A decomposable [8,3]_5 code, a point beside a line of six, holds no
    frame: its base is all six points, whose images under the point group
    are the candidate point maps, and at a coset cap of 1 one isomorphism
    search of the incidence matrices decides instead.  A seeded copy whose
    sigma0 does not lift gets a verified witness both ways."""
    spec = field(5)
    c1 = _direct_sum(spec, [random_code(spec, 2, 1, seed=1),
                            random_code(spec, 6, 2, seed=1)])
    c2 = GeneratorMatrix(spec, _random_transform(
        spec, 8, random.Random(1), allow_rho=False).apply(c1.mat).rows)
    rec = equiv._Side(c1)
    assert rec.side is c1 and len(rec.points) == 6
    assert not _sigma0_lifts(c1, c2, ["pair"])
    reads, _ = _incidence_use(monkeypatch)
    for cap, searched in ((COSET_CAP, 0), (1, 2)):
        monkeypatch.setattr(lift, "COSET_CAP", cap)
        reads.clear()
        v = cesimpg_equiv(c1, c2)
        assert (v.equivalent, v.method) == (True, "cesimpg")
        assert verify_witness(c1, c2, v.witness)
        assert len(reads) == searched


def test_repeated_point_past_the_coset_cap_witnessed():
    # a [6,3]_5 code with its first point repeated 10 more times, scaled:
    # |H1| >= 10! is past the coset cap, but permuting a point's coordinates
    # never changes whether a candidate lifts, so only a frame's orbit under
    # the point group is searched, and the pair gets a witness where sigma0
    # alone does not lift
    spec = field(5)
    for seed in (0, 5, 7, 8, 9):
        rng = random.Random(seed)
        cols = random_code(spec, 6, 3, seed=seed).mat.columns()
        for a in [rng.choice(spec.nonzero()) for _ in range(9)]:
            cols.append([spec.mul(a, x) for x in cols[0]])
        c1 = GeneratorMatrix.from_columns(spec, cols)
        t = _random_transform(spec, c1.n, rng, allow_rho=False)
        c2 = GeneratorMatrix(spec, t.apply(c1.mat).rows)
        r1 = canonical_form(build_shortened(c1))
        assert code_aut_group(c1).h1_order > COSET_CAP >= r1.group_order
        assert not _sigma0_lifts(c1, c2)
        v = cesimpg_equiv(c1, c2)
        assert (v.equivalent, v.method) == (True, "cesimpg")
        assert verify_witness(c1, c2, v.witness)


def test_witness_tampering_detected(worked_pair):
    c1, c2 = worked_pair
    w = cesimpg_equiv(c1, c2).witness
    import dataclasses
    bad_sigma = dataclasses.replace(w, sigma=tuple(range(6)))
    assert not verify_witness(c1, c2, bad_sigma)
    bad_lambda = dataclasses.replace(
        w, lambdas=(w.lambdas[0] % 2 + 1,) + w.lambdas[1:])
    assert not verify_witness(c1, c2, bad_lambda)
    bad_rho = dataclasses.replace(w, rho=5)
    assert not verify_witness(c1, c2, bad_rho)
    spec = field(3)
    bad_q = dataclasses.replace(
        w, q_matrix=GFMatrix(spec, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert not verify_witness(c1, c2, bad_q)
    # a second code of another shape: mismatched k, then mismatched n
    assert not verify_witness(c1, random_code(spec, 6, 2, seed=1), w)
    assert not verify_witness(c1, random_code(spec, 7, 3, seed=1), w)
    # a second code of the same shape over another field
    assert not verify_witness(c1, random_code(field(5), 6, 3, seed=1), w)


def test_budget_error_propagates_after_both_routes(monkeypatch):
    # A transformed pair shares every cheap invariant, so both routes must
    # actually canonicalize -- and a zero budget then fails them both.
    spec = field(3)
    c1, c2 = _transformed_pair(spec, 8, 3, seed=6)
    monkeypatch.setattr(bmcanon, "NODE_BUDGET", 0)
    with pytest.raises(BudgetExceededError):
        cesimpg_equiv(c1, c2)
    with pytest.raises(BudgetExceededError):
        ceimpg_equiv(c1, c2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_shortened_key_and_group_order_match_systematic_form(q):
    """Row operations and a column move only relabel the rows and columns
    of the shortened matrix, so a code and its systematic form share their
    canonical key and automorphism group order."""
    spec = field(q)
    rng = random.Random(700 + q)
    for _ in range(6):
        k = rng.randrange(2, 4)
        code = random_code(spec, rng.randrange(k + 2, k + 6), k,
                           seed=rng.randrange(10 ** 6))
        gs = systematic_code(code)
        r, rs = (canonical_form(build_shortened(c)) for c in (code, gs))
        assert serialize(r.matrix) == serialize(rs.matrix)
        assert r.group_order == rs.group_order


# ---------------------------------------------------------------------------
# automorphism groups


def test_aut_group_simplex_values():
    for (k, q, expect) in [(3, 2, 168), (2, 3, 48)]:
        code = GeneratorMatrix(q, simplex_generator(k, q).rows)
        rep = code_aut_group(code)
        assert rep.complete and rep.order == expect


@pytest.mark.parametrize("q", [3, 5, 7])
def test_aut_group_matches_gl_preserver_census(q):
    """|Aut(C)| equals (number of GL matrices preserving the point multiset)
    times the product of the multiplicities' factorials.  The direct sums
    have several support components, so their kernel order (q-1)^c is
    checked too.  Random codes are checked for k = 3 only: for k = 2 some
    generators fail to lift and no order is reported."""
    import math
    spec = field(q)
    k = 3 if q == 3 else 2
    cases = [_direct_sum(spec, [random_code(spec, a, 1, seed=s),
                                random_code(spec, b, k - 1, seed=s)])
             for a, b, s in [(1, 2, 0), (2, 3, 1), (3, 4, 2)]]
    if k == 3:
        cases.append(_direct_sum(spec, [random_code(spec, a, 1, seed=a)
                                        for a in (1, 2, 2)]))
        cases.append(GeneratorMatrix(3, G1_ROWS))
        cases += [random_code(spec, n, 3, seed=s) for n, s in [(6, 0), (7, 1), (7, 9)]]
    kernels = []
    for code in cases:
        rep = code_aut_group(code)
        assert rep.complete
        kernels.append(rep.kernel_order)
        chi = characteristic_vector(code)
        dup = 1
        for c in chi.counts:
            dup *= math.factorial(c)
        want = brute_force_preserver_count(code.mat.rows, q) * dup
        assert rep.order == want
    assert max(kernels) >= (q - 1) ** 2


def test_aut_group_decomposable_code():
    # I_3 over GF(3): 3! permutations x 2^3 diagonals
    code = GeneratorMatrix(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rep = code_aut_group(code)
    assert rep.kernel_order == 8
    assert rep.order == 48


def test_aut_group_trivial_symmetry_code():
    # This sample has no projective symmetry at all, so the full group is
    # exactly the q-1 global scalings.
    code = random_code(field(3), 11, 4, seed=0)
    rep = code_aut_group(code)
    assert rep.h1_order == 1
    assert rep.kernel_order == 2
    assert rep.complete and rep.order == 2


def test_aut_group_composite_field_partial():
    code = random_code(field(4), 8, 3, seed=1)
    rep = code_aut_group(code)
    assert rep.order is None and not rep.complete
    for w in rep.lifted:
        assert verify_witness(code, code, w)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_aut_group_lifted_sigmas_are_h1_generators(q):
    """Each lifted witness moves coordinates exactly as the H1 generator it
    lifts, in generator order."""
    spec = field(q)
    for seed in range(6):
        code = random_code(spec, 7, 3, seed=seed)
        rep = code_aut_group(code)
        assert [w.sigma for w in rep.lifted] == [
            g for g in rep.h1_generators if g not in rep.failed]


def test_aut_group_witnesses_verify():
    code = GeneratorMatrix(3, G1_ROWS)
    rep = code_aut_group(code)
    assert rep.lifted and not rep.failed
    for w in rep.lifted:
        assert verify_witness(code, code, w)


def test_aut_group_lifts_onto_one_target(monkeypatch):
    """code_aut_group of the [31,5]_2 simplex code lifts its 14 generators
    onto one lift target: the support forest of its rref is walked once,
    for every lift and the kernel's component count alike, and the rank of
    a Q is checked once per lifted witness, by `verify_witness`."""
    code = GeneratorMatrix(2, simplex_generator(5, 2).rows)
    walks = _counting(monkeypatch, "_support_forest",
                      module=lift)["_support_forest"]
    ranks = _counting(monkeypatch, "rank")["rank"]
    rep = code_aut_group(code)
    assert len(rep.h1_generators) >= 10 and not rep.failed
    assert rep.order == 9999360  # |GL(5,2)|
    assert len(walks) == 1
    assert len(ranks) == len(rep.lifted) == len(rep.h1_generators)


# ---------------------------------------------------------------------------
# high-rate codes: canonical forms of the dual, lifting on the code


def _dual(code):
    return GeneratorMatrix(code.spec, nullspace_basis(code.mat))


# q -> (n, k) shapes with 2k > n whose primal incidence stays small enough
# for the independent primal oracle below; n - k = 2 gives duals of
# dimension 2
HIGH_RATE_SHAPES = {2: [(9, 6), (8, 5), (5, 3)], 3: [(7, 4), (6, 4), (5, 4)],
                    4: [(7, 4), (5, 3), (4, 3)], 5: [(7, 4), (5, 3), (4, 3)],
                    7: [(5, 3), (4, 3)], 8: [(5, 3), (4, 3)],
                    9: [(5, 3), (4, 3)]}


# q -> (n, k, seed, seed) of inequivalent codes, keyed on their duals, that
# share their weight profile
HIGH_RATE_SHARED_PROFILE = {2: [(9, 6, 3, 8)], 3: [(7, 4, 6, 8)],
                            4: [(7, 4, 5, 25)], 5: [(7, 4, 10, 14)],
                            7: [(5, 3, 0, 3)], 9: [(5, 3, 0, 5)]}


@pytest.mark.parametrize("q", sorted(HIGH_RATE_SHAPES))
def test_high_rate_pairs_agree_with_ceimpg_and_primal(q):
    """Seeded high-rate pairs, half of them transformed copies (with a
    nontrivial field automorphism over GF(4/8/9)), half independent, and
    inequivalent pairs that share their weight profile: the verdict agrees
    with ceimpg_equiv and with the primal incidence structures, and every
    witness verifies."""
    spec = field(q)
    rng = random.Random(900 + q)
    pairs = []
    for n, k in HIGH_RATE_SHAPES[q]:
        for j in range(6):
            c1 = random_code(spec, n, k, seed=rng.randrange(10 ** 6))
            if j % 2 == 0:
                t = _random_transform(spec, n, rng)
                if spec.m > 1:
                    t = MonomialTransform(spec, t.sigma, t.lambdas,
                                          rng.randrange(1, spec.m))
                c2 = GeneratorMatrix(spec, t.apply(c1.mat).rows)
            else:
                c2 = random_code(spec, n, k, seed=rng.randrange(10 ** 6))
            # a transformed copy is equivalent; an independent code unknown
            pairs.append((c1, c2, True if j % 2 == 0 else None))
    # most independent pairs differ in their weight profile, and so never
    # reach a canonical search; these share it
    for n, k, a, b in HIGH_RATE_SHARED_PROFILE.get(q, ()):
        c1, c2 = (random_code(spec, n, k, seed=s) for s in (a, b))
        assert _profile(c1) == _profile(c2)
        pairs.append((c1, c2, False))
    duals = 0
    for c1, c2, expected in pairs:
        n, k = c1.n, c1.k
        duals += equiv._side(c1).k == n - k
        v = cesimpg_equiv(c1, c2)
        assert v.method == "cesimpg"
        assert v.equivalent == ceimpg_equiv(c1, c2).equivalent
        primal = bmcanon.is_isomorphic(
            *(build_ceimpg_matrix(characteristic_vector(c)) for c in (c1, c2)))
        assert v.equivalent == (primal is not None)
        if expected is not None:
            assert v.equivalent == expected
        if v.equivalent:
            assert verify_witness(c1, c2, v.witness)
    assert duals > 0


@pytest.mark.parametrize("q,shapes", [(2, [(5, 3), (6, 4), (7, 4), (5, 4)]),
                                      (3, [(4, 3), (5, 3)]),
                                      (5, [(3, 2)]), (7, [(3, 2)])])
def test_aut_group_high_rate_matches_gl_oracle(q, shapes):
    """code_aut_group on high-rate prime-field codes: the permutation group
    comes from the dual, the kernel and the lifts from the code, and the
    order equals the GL preserver census of the code itself."""
    import math
    spec = field(q)
    for n, k in shapes:
        for seed in range(4):
            code = random_code(spec, n, k, seed=seed)
            rep = code_aut_group(code)
            assert rep.complete
            dup = 1
            for c in characteristic_vector(code).counts:
                dup *= math.factorial(c)
            assert rep.order == brute_force_preserver_count(code.mat.rows, q) * dup
            for w in rep.lifted:
                assert verify_witness(code, code, w)


def test_weight_one_word_stays_primal():
    """A code holding a weight-1 word has a zero dual column, so it keeps
    its own side, and still gets a witness and its exact group order."""
    spec = field(3)
    code = _direct_sum(spec, [GeneratorMatrix(spec, [[1]]),
                              random_code(spec, 4, 2, seed=4)])
    assert 2 * code.k > code.n and equiv._side(code) is code
    t = _random_transform(spec, code.n, random.Random(5))
    copy = GeneratorMatrix(spec, t.apply(code.mat).rows)
    v = cesimpg_equiv(code, copy)
    assert v.equivalent and verify_witness(code, copy, v.witness)
    rep = code_aut_group(code)
    assert rep.complete
    assert rep.order == brute_force_preserver_count(code.mat.rows, 3)
    # a code without the weight-1 word is on the dual side, so inequivalent;
    # an [n, n-2] code over q > 3 takes its dual like any other
    other = random_code(spec, 5, 3, seed=3)
    assert equiv._side(other).k == 2
    assert equiv._Side(random_code(field(8), 7, 5, seed=0)).side.k == 2
    assert not cesimpg_equiv(code, other).equivalent
    assert not ceimpg_equiv(code, other).equivalent


def test_high_rate_beyond_the_point_table_gets_a_witness():
    """A [30,25]_2 code: its own point table (PG(24,2)) is refused, its
    dual's has 31 points."""
    spec = field(2)
    c1 = _dual(random_code(spec, 30, 5, seed=1, projective=True))
    assert (c1.n, c1.k) == (30, 25)
    with pytest.raises(ResourceLimitError):
        build_shortened(c1)
    t = _random_transform(spec, 30, random.Random(2))
    c2 = GeneratorMatrix(spec, t.apply(c1.mat).rows)
    v = cesimpg_equiv(c1, c2)
    assert v.equivalent and v.method == "cesimpg"
    assert verify_witness(c1, c2, v.witness)


def test_incidence_beyond_the_cell_bound_is_a_per_item_error():
    """[32,15]_2 codes are keyed on PG(14,2): 32,767 points, whose point
    table is allowed but whose incidence matrix (about 1.1e9 cells) is
    refused before any of it is allocated.  The code and its transformed
    copy share their profile, so both are keyed, and each ends in the
    typed error.  Beside an independent code of the same shape, whose
    profile differs, the code is never keyed: both are classes of their
    own on both routes."""
    codes = list(_transformed_pair(field(2), 32, 15, seed=0))
    tracemalloc.start()
    try:
        result = classify(codes, algo="ceimpg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert [i for i, _ in result.errors] == [0, 1]
    assert all(msg.startswith("ResourceLimitError: the incidence matrix of "
                              "PG(14,2)") for _, msg in result.errors)
    assert result.classes == []
    other = random_code(field(2), 32, 15, seed=1)
    for algo in ("ceimpg", "cesimpg"):
        result = classify([codes[0], other], algo=algo)
        assert result.errors == []
        assert [c.members for c in result.classes] == [[0], [1]]


def test_incidence_route_on_1023_points():
    """A [20,10]_2 code keeps its own side, so its ceimpg matrix is the
    incidence of PG(9,2): 1,023 columns, searched by the node budget
    alone.  Both routes must agree on a transformed copy and on an
    independent code."""
    spec = field(2)
    c1, c2 = _transformed_pair(spec, 20, 10, seed=1)
    c3 = random_code(spec, 20, 10, seed=3)
    assert equiv._side(c1) is c1 and theta(9, 2) == 1023
    v = cesimpg_equiv(c1, c2)
    assert v.equivalent and verify_witness(c1, c2, v.witness)
    assert not cesimpg_equiv(c1, c3).equivalent
    assert ceimpg_equiv(c1, c2).equivalent
    assert not ceimpg_equiv(c1, c3).equivalent
    result = classify([c1, c2, c3], algo="ceimpg")
    assert [c.members for c in result.classes] == [[0, 1], [2]]
    assert result.errors == []


# ---------------------------------------------------------------------------
# classification


def test_classify_groups_transformed_copies(monkeypatch):
    # a [8,3]_3 side: the ceimpg key proves membership with no lift, while
    # cesimpg lifts each copy onto the representative
    lifts = _counting(monkeypatch, "_find_lift", module=batch)["_find_lift"]
    spec = field(3)
    rng = random.Random(8)
    base = random_code(spec, 8, 3, seed=55)
    codes = [base]
    for _ in range(9):
        t = _random_transform(spec, 8, rng, allow_rho=False)
        codes.append(GeneratorMatrix(spec, t.apply(base.mat).rows))
    codes.append(random_code(spec, 8, 3, seed=77))
    for algo in ("ceimpg", "cesimpg"):
        result = classify(codes, algo=algo)
        sizes = sorted(len(c.members) for c in result.classes)
        assert sizes[-1] >= 10  # all copies land together
        assert result.n_codes == 11
        assert len(lifts) >= 9 if algo == "cesimpg" else lifts == []
        lifts.clear()


def test_classify_agreement_and_determinism():
    # a [9,3]_3 batch, and a [6,2]_7 one, whose ceimpg keys (a matching on
    # PG(1,7)) each hold several classes, told apart by lifting
    for q, n, k in ((3, 9, 3), (7, 6, 2)):
        spec = field(q)
        codes = [random_code(spec, n, k, seed=s) for s in range(60)]
        r_ce = classify(codes, algo="ceimpg")
        r_cs = classify(codes, algo="cesimpg")
        assert len(r_ce.classes) == len(r_cs.classes)
        part_ce = sorted(tuple(c.members) for c in r_ce.classes)
        part_cs = sorted(tuple(c.members) for c in r_cs.classes)
        assert part_ce == part_cs  # identical partitions, not just counts
        keys = len({c.key_digest for c in r_ce.classes})
        assert (keys < len(r_ce.classes)) == (k == 2)
        again = classify(codes, algo="ceimpg")
        assert again.digest == r_ce.digest
        assert [c.members for c in again.classes] == [
            c.members for c in r_ce.classes]


@pytest.fixture
def started(monkeypatch):
    """The worker processes classify starts, recorded through a stand-in
    for the fork context that starts real forked processes."""
    real = multiprocessing.get_context("fork")
    procs = []

    class Process(real.Process):
        def start(self):
            procs.append(self)
            super().start()

    def get_context(method):
        assert method == "fork"
        return types.SimpleNamespace(Pipe=real.Pipe, Process=Process)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return procs


@pytest.fixture
def forks(started, monkeypatch):
    """`started`, with FORK_PAYS_S = 0: every classify at jobs > 1 forks its
    workers before it keys the first code, one contiguous share each."""
    monkeypatch.setattr(batch, "FORK_PAYS_S", 0)
    return started


def test_classify_jobs_parallel_identical(forks):
    # 41 codes: neither 2 nor 3 divides the batch, so the shares are uneven
    spec = field(3)
    codes = [random_code(spec, 9, 3, seed=s) for s in range(41)]
    for algo in ("ceimpg", "cesimpg"):
        seq = classify(codes, algo=algo, jobs=1)
        for jobs in (2, 3):
            par = classify(codes, algo=algo, jobs=jobs)
            assert len(forks) == jobs - 1
            assert all(p.exitcode == 0 for p in forks)
            forks.clear()
            assert seq.digest == par.digest
            assert seq.errors == par.errors
            assert ([c.members for c in seq.classes]
                    == [c.members for c in par.classes])


def test_classify_short_batch_starts_no_worker(started):
    # 5 codes key in a few ms, far below FORK_PAYS_S: this process keys them
    spec = field(3)
    codes = [random_code(spec, 8, 3, seed=s) for s in range(5)]
    for algo in ("ceimpg", "cesimpg"):
        seq = classify(codes, algo=algo, jobs=1)
        par = classify(codes, algo=algo, jobs=64)
        assert started == []
        assert par.digest == seq.digest
        assert [c.members for c in par.classes] == [c.members for c in seq.classes]


@pytest.mark.parametrize("burn, keyed_here", [
    # each code burns 10 ms of CPU: after the first, this process has its
    # sample (FORK_PAYS_S / 8) and projects 110 ms for the other 11, which
    # are cut at 11 * i // 3 into shares of 3, 4 and 4: this process keys
    # codes 1 to 3, the workers 4 to 7 and 8 to 11
    (lambda i: 0.01, 4),
    # codes 0 to 2 key at once and code 3 burns 60 ms: the projection
    # reaches FORK_PAYS_S only after 4 codes, and the 8 left are cut into
    # shares of 2, 3 and 3: this process keys codes 4 and 5, the workers 6
    # to 8 and 9 to 11
    (lambda i: 0.06 if i == 3 else 0, 6),
])
def test_classify_forks_for_the_rest_once_keying_pays(monkeypatch, started,
                                                       burn, keyed_here):
    """`_code_key` burns `burn(i)` seconds of CPU on the i-th code: this
    process keys the first `keyed_here` of 12 codes, then two workers at
    jobs=3 key the rest, with the answers of jobs=1."""
    real = batch._code_key
    mine = []

    def code_key(rec, mode):
        end = time.process_time() + burn(len(mine))
        mine.append(id(rec.code))  # a worker appends to its own copy
        while time.process_time() < end:
            pass
        return real(rec, mode)

    codes = _sharing_batch(12)
    seq = classify(codes, algo="cesimpg", jobs=1)
    monkeypatch.setattr(batch, "_code_key", code_key)
    par = classify(codes, algo="cesimpg", jobs=3)
    assert mine == [id(code) for code in codes[:keyed_here]]
    assert len(started) == 2 and all(p.exitcode == 0 for p in started)
    assert par.digest == seq.digest
    assert par.errors == seq.errors
    assert [c.members for c in par.classes] == [c.members for c in seq.classes]


def test_classify_pool_sized_by_batch(forks):
    """jobs counts this process too and never exceeds the batch: 3 codes at
    jobs=64 start 2 workers, one code starts none."""
    codes = _sharing_batch(3)
    for algo in ("ceimpg", "cesimpg"):
        seq = classify(codes, algo=algo, jobs=1)
        classify(codes[:1], algo=algo, jobs=64)
        assert forks == []
        par = classify(codes, algo=algo, jobs=64)
        assert len(forks) == 2 and all(p.exitcode == 0 for p in forks)
        assert par.digest == seq.digest
        assert [c.members for c in par.classes] == [c.members for c in seq.classes]
        forks.clear()


def _act_on(monkeypatch, *actions):
    """Make `_code_key` call `action()` when it keys the code `target`, for
    each (target, action) pair."""
    real = batch._code_key

    def code_key(rec, mode):
        for target, action in actions:
            if rec.code is target:
                action()
        return real(rec, mode)

    monkeypatch.setattr(batch, "_code_key", code_key)


def _assert_no_child_left():
    # every worker has been reaped: no child, running or zombie, is left
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise(exc):
    raise exc


@contextlib.contextmanager
def _deadline(seconds):
    """Fail a wait that outlasts `seconds` instead of hanging on it."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_classify_worker_exception_reaches_caller(monkeypatch, forks):
    # 4 codes at jobs=2: the worker keys codes 2 and 3
    codes = _sharing_batch(4)
    _act_on(monkeypatch, (codes[3], lambda: _raise(RuntimeError("boom"))))
    with pytest.raises(RuntimeError, match="^boom$"):
        classify(codes, algo="cesimpg", jobs=2)
    assert len(forks) == 1 and forks[0].exitcode == 0
    _assert_no_child_left()


def test_classify_worker_dying_unanswered_is_an_error(monkeypatch, forks):
    # 6 codes at jobs=3: the second worker keys codes 4 and 5 and exits with
    # status 3 on code 5; this process holds no copy of the sending end of
    # its pipe, so it reads EOF there rather than waiting forever
    codes = _sharing_batch(6)
    _act_on(monkeypatch, (codes[5], lambda: os._exit(3)))
    with _deadline(30), pytest.raises(RuntimeError,
                                      match="exited with status 3"):
        classify(codes, algo="ceimpg", jobs=3)
    assert [p.exitcode for p in forks] == [0, 3]
    _assert_no_child_left()


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_classify_own_share_failure_terminates_workers(monkeypatch, forks, exc):
    # this process fails on code 0 while its worker would sleep for a minute
    # on code 2: the worker is terminated and reaped at once
    codes = _sharing_batch(4)
    _act_on(monkeypatch, (codes[0], lambda: _raise(exc("mine"))),
            (codes[2], lambda: time.sleep(60)))
    with _deadline(30), pytest.raises(exc, match="mine"):
        classify(codes, algo="cesimpg", jobs=2)
    assert len(forks) == 1 and forks[0].exitcode == -signal.SIGTERM
    _assert_no_child_left()


def test_classify_workers_see_module_state_under_spawn_default(monkeypatch,
                                                               forks):
    # workers are forked whatever the default start method is, so they run
    # with this process's NODE_BUDGET = 0 rather than a fresh import's
    codes = _sharing_batch(5)
    monkeypatch.setattr(bmcanon, "NODE_BUDGET", 0)
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        for algo in ("ceimpg", "cesimpg"):
            seq = classify(codes, algo=algo, jobs=1)
            assert [idx for idx, _ in seq.errors] == list(range(5))
            par = classify(codes, algo=algo, jobs=2)
            assert len(forks) == 1 and forks[0].exitcode == 0
            forks.clear()
            assert par.errors == seq.errors
            assert [c.members for c in par.classes] == []
    finally:
        multiprocessing.set_start_method(default, force=True)


def test_classify_digests_pinned():
    # class keys, a profile key (`batch._profile_key`) followed, where
    # profiles collide, by a canonical key (`CanonResult.key`), and so the
    # classify digests, change only on purpose: 40 [10,3]_3 codes, most with
    # repeated points, 10 high-rate [10,7]_3 codes, most keyed by their
    # duals, and a seeded copy of every fifth, on both routes.  26 of the 60
    # codes have a profile of their own and classes keyed by it alone; the
    # other 34 are keyed canonically
    spec = field(3)
    codes = [random_code(spec, 10, 3, seed=s) for s in range(40)]
    codes += [random_code(spec, 10, 7, seed=s) for s in range(10)]
    rng = random.Random(17)
    codes += [GeneratorMatrix(spec, _random_transform(spec, 10, rng).apply(
        c.mat).rows) for c in codes[::5]]
    shared = collections.Counter(equiv._Side(c).profile for c in codes)
    assert sorted(shared.values()).count(1) == 26
    digests = {}
    for algo in ("ceimpg", "cesimpg"):
        result = classify(codes, algo=algo)
        assert result.errors == [] and len(result.classes) == 45
        digests[algo] = result.digest
    assert digests == {
        "ceimpg": "f3a02d4b82c4d8993c29cc7c2aaebbee"
                  "6274c19deacf1b6d71491ab0455968b7",
        "cesimpg": "fd2d763f67bad7ba5379a0a3ac89c2ac"
                   "0cbcbed5b7925517f7e401876112de48"}


def test_classify_keeps_no_keying_caches():
    """A batch keeps each code's `_Side` record until it returns, but not
    what only keying reads (`_Side.drop_keying`): the incidence columns,
    the shortened matrix, the weights and the binary rows.  On 300 seeded
    [20,3]_7 codes (300 classes) cesimpg then traces at most 4,300 bytes
    per code at its peak, about 3,500 on CPython 3.11, against 5,100 while
    the records kept them."""
    codes = [random_code(field(7), 20, 3, seed=s) for s in range(300)]
    classify(codes[:5], algo="cesimpg")  # the geometry's cached tables
    tracemalloc.start()
    try:
        result = classify(codes, algo="cesimpg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.classes) == 300
    assert peak < 4300 * len(codes)
    rec = equiv._Side(codes[0])
    batch._code_key(rec, "cesimpg")
    assert not {"columns", "matrix", "weights", "rows"} & set(vars(rec))
    assert rec.points and rec.form


# ---------------------------------------------------------------------------
# classification keys: certificate bytes, no text


class _TextKeyed(CanonResult):
    """A canonical form whose `key()` is its `serialize()` text, encoded."""

    def key(self) -> bytes:
        return self.serialize().encode()


def _text_code_key(rec, mode):
    """`batch._code_key` with the same canonical form keyed on its
    `serialize()` text, so that a class key is the profile key followed by
    that text, as classify keyed codes before its keys were bytes: the
    reference the byte keys must partition like."""
    try:
        form = canonical_form(rec.incidence) if mode == "ceimpg" else rec.form
    except (BudgetExceededError, ResourceLimitError) as e:
        return None, f"{type(e).__name__}: {e}"
    finally:
        rec.drop_keying()
    return _TextKeyed(**{f.name: getattr(form, f.name)
                         for f in dataclasses.fields(form)}), None


# per field, [n,k] shapes of one seeded batch: codes keyed on themselves,
# high-rate ones keyed on their duals, and ones with repeated points (n
# over theta(k-1, q)); over GF(2) also shapes whose minimum-weight rows span
KEY_SHAPES = {2: [(6, 2), (7, 3), (7, 4), (8, 4), (10, 3)],
              3: [(6, 2), (7, 3), (7, 5), (14, 2)],
              4: [(7, 3), (8, 5), (10, 2)],
              8: [(6, 3), (7, 4), (12, 2)]}


def _key_batch(q):
    """Eight seeded codes of each of `KEY_SHAPES[q]` and a seeded monomial
    copy (semilinear over GF(4) and GF(8)) of each, so that every code
    shares its profile and is keyed, shuffled, so one batch mixes lengths
    and dimensions."""
    spec = field(q)
    rng = random.Random(4300 + q)
    codes = [random_code(spec, n, k, seed=s) for n, k in KEY_SHAPES[q]
             for s in range(8)]
    codes += [GeneratorMatrix(spec, _random_transform(spec, c.n, rng).apply(
        c.mat).rows) for c in codes]
    rng.shuffle(codes)
    return codes


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("algo", ["ceimpg", "cesimpg"])
@pytest.mark.parametrize("q", sorted(KEY_SHAPES))
def test_byte_keys_classify_as_text_keys(monkeypatch, forks, q, algo, jobs):
    """A batch classified on its byte keys has the partition, class order
    and errors of the same batch keyed on the profile key followed by the
    `serialize()` text (`_text_code_key`), at jobs 1 and 2; two codes' byte
    keys are equal exactly when their texts are; each class's `key_digest`
    and the batch `digest` hash the byte keys.  The batches hold primal,
    dual-side and repeated-point codes, and over GF(2) on cesimpg ones
    keyed on their minimum-weight rows.  No text is rendered:
    `serialize`, `CanonResult.serialize` and `_render` raise while the byte
    keys classify, in this process and in the worker."""

    def refuse(*args):
        raise AssertionError("classify rendered a key's text")

    codes = _key_batch(q)
    records = [equiv._Side(code) for code in codes]
    kinds = {(rec.profile[0], algo == "cesimpg" and rec.rows is not None)
             for rec in records}
    profiles = [batch._profile_key(rec.profile) for rec in records]
    forms = [batch._code_key(rec, algo) for rec in records]
    texts = [_text_code_key(rec, algo) for rec in records]
    assert all(msg is None for _, msg in forms + texts)
    keys = [p + form.key() for p, (form, _) in zip(profiles, forms)]
    pairs = {(key, p + text.key())
             for key, p, (text, _) in zip(keys, profiles, texts)}
    assert len(pairs) == len({key for key, _ in pairs}) == len(
        {text for _, text in pairs}) < len(codes)
    assert kinds == ({(False, False), (True, False), (False, True),
                      (True, True)} if q == 2 and algo == "cesimpg"
                     else {(False, False), (True, False)})
    assert any(len(_locate(equiv._side(c))[0]) < c.n for c in codes)
    with monkeypatch.context() as m:
        for owner, name in ((bmcanon, "serialize"), (bmcanon, "_render"),
                            (CanonResult, "serialize")):
            m.setattr(owner, name, refuse)
        got = classify(codes, algo=algo, jobs=jobs)
    assert len(forks) == jobs - 1 and all(p.exitcode == 0 for p in forks)
    forks.clear()
    monkeypatch.setattr(batch, "_code_key", _text_code_key)
    want = classify(codes, algo=algo, jobs=jobs)
    assert ([(c.representative, c.members) for c in got.classes]
            == [(c.representative, c.members) for c in want.classes])
    assert got.errors == want.errors == []
    reps = [keys[c.representative] for c in got.classes]
    assert [c.key_digest for c in got.classes] == [
        hashlib.sha256(key).hexdigest()[:12] for key in reps]
    assert got.digest == hashlib.sha256(b"".join(sorted(reps))).hexdigest()


def _read_key(blob):
    """(profile, n_rows, col_colors, cert, rest) read off the front of
    `blob`, a class key (a `batch._profile_key`, then a `CanonResult.key()`
    or none) followed by any bytes; with no canonical key, n_rows,
    col_colors and cert are None."""
    end = 24  # the dual flag, n and k
    for _ in range(2):  # the weights, then the multiplicities
        end += 8 + 16 * struct.unpack_from("<q", blob, end)[0]
    profile, blob = blob[:end], blob[end:]
    if blob[:1] != b"c":
        return profile, None, None, None, blob
    n_cols, n_rows = struct.unpack_from("<QQ", blob, 1)
    colors = struct.unpack_from(f"<{n_cols}q", blob, 17)
    start = 17 + 8 * n_cols
    end = start + n_rows * -(-n_cols // 8)
    return profile, n_rows, colors, blob[start:end], blob[end:]


# profiles of hand-made class keys: a primal and a dual side of one n, k,
# weights and multiplicities, and one of no points
KEY_PROFILES = [(False, 7, 3, (0, 3, 3, 4, 4, 4, 4), (1, 1, 1, 1, 1, 1, 1)),
                (True, 7, 3, (0, 3, 3, 4, 4, 4, 4), (1, 1, 1, 1, 1, 1, 1)),
                (False, 0, 0, (), ())]


def test_canon_key_equal_exactly_when_texts_are():
    """Class keys made of a profile key and the key of a hand-made form are
    equal exactly when the profile keys followed by the `serialize()` texts
    are, and each reads back as its profile, rows, colors and certificate,
    also followed by another key, with or without a form.  The forms
    include ones whose colors are 8 arbitrary bytes, ones with no columns,
    and forms alike but for their rows, colors or row count."""
    wide = int.from_bytes(b"dual:\0\0\0", "little")
    mimic = int.from_bytes(b"min:dual", "little")
    matrices = [
        ColoredBinaryMatrix([[1, 0], [0, 1]], [3, 4]),
        ColoredBinaryMatrix([[1, 0], [0, 1]], [3, 5]),
        ColoredBinaryMatrix([[1, 1], [0, 1]], [3, 4]),
        ColoredBinaryMatrix([[1, 0], [0, 1], [1, 1]], [3, 4]),
        ColoredBinaryMatrix([[1, 0], [0, 1]], [wide, 0]),
        ColoredBinaryMatrix([[1, 0], [0, 1]], [mimic, -1]),
        ColoredBinaryMatrix([[1, 0, 1]], [mimic, wide, 99]),
        ColoredBinaryMatrix([], n_cols=0),
        ColoredBinaryMatrix([[]], n_cols=0),
        ColoredBinaryMatrix([[], []], n_cols=0),
        ColoredBinaryMatrix([], [0, 0]),
        ColoredBinaryMatrix([[0] * 9, [1] * 9], [1] * 9),
        ColoredBinaryMatrix([[0] * 9, [1] * 8 + [0]], [1] * 9),
    ]
    # relabeled copies have the same canonical form
    matrices += [permute_columns(m, tuple(reversed(range(m.n_cols))))
                 for m in matrices[:7]]
    forms = [canonical_form(m) for m in matrices]
    profiles = [batch._profile_key(p) for p in KEY_PROFILES]
    keyed = [(p, form) for p in profiles for form in forms]
    for p, form in keyed:
        key = p + form.key()
        want = (p, form.n_rows, form.col_colors, form.cert, b"")
        assert _read_key(key) == want
        assert _read_key(p) == (p, None, None, None, b"")
        for p2, form2 in keyed:
            key2 = p2 + form2.key()
            assert (key == key2) == ((p, form.serialize())
                                     == (p2, form2.serialize()))
            assert _read_key(key + key2)[:4] == want[:4]
            assert _read_key(key + p2)[:4] == want[:4]
            assert _read_key(p + key2) == (p, None, None, None, key2)
    assert len({p + form.key() for p, form in keyed}) == len(
        {p + form.serialize().encode() for p, form in keyed}) == 3 * 13


def test_classify_refuses_auto():
    # classify names its two routes; only decide_equivalence takes "auto"
    with pytest.raises(ValueError, match="unknown algorithm 'auto'"):
        classify([random_code(field(3), 6, 2, seed=0)], algo="auto")


def test_classify_mixed_fields_rejected():
    with pytest.raises(ValueError):
        classify([random_code(field(3), 6, 2, seed=0),
                  random_code(field(5), 6, 2, seed=0)])


@pytest.mark.parametrize("jobs", [0, -3, 2.5, "2", None])
def test_classify_rejects_jobs_below_one_or_not_int(jobs):
    codes = [random_code(field(3), 6, 2, seed=s) for s in range(3)]
    with pytest.raises(ValueError, match="jobs must be an int >= 1"):
        classify(codes, jobs=jobs)


def test_classify_takes_any_integral_jobs(forks):
    codes = _sharing_batch(3, n=6, k=2)
    assert (classify(codes, jobs=np.int64(2)).digest
            == classify(codes, jobs=1).digest)
    assert len(forks) == 1


def test_classify_budget_errors_collected_not_raised(monkeypatch, forks):
    # the forked workers inherit NODE_BUDGET = 0, so at jobs=2 the errors
    # come from this process's share and from the worker's share alike
    codes = _sharing_batch(5)
    monkeypatch.setattr(bmcanon, "NODE_BUDGET", 0)
    for algo in ("ceimpg", "cesimpg"):
        seq = classify(codes, algo=algo, jobs=1)
        assert [idx for idx, _ in seq.errors] == list(range(5))
        assert not seq.classes
        for idx, msg in seq.errors:
            assert "Budget" in msg
        par = classify(codes, algo=algo, jobs=2)
        assert len(forks) == 1 and forks[0].exitcode == 0
        forks.clear()
        assert par.errors == seq.errors
        assert not par.classes


def test_classify_classes_ordered_by_first_appearance():
    spec = field(3)
    base = random_code(spec, 8, 3, seed=3)
    other = random_code(spec, 8, 3, seed=14)
    t = MonomialTransform(spec, tuple(reversed(range(8))), (1,) * 8, 0)
    copy = GeneratorMatrix(spec, t.apply(base.mat).rows)
    result = classify([base, other, copy], algo="cesimpg")
    assert result.classes[0].representative == 0
    assert result.classes[0].members == [0, 2]
    assert result.classes[1].representative == 1


def test_classify_bucket_with_several_classes(monkeypatch, forks):
    """Three shortened-key buckets of two inequivalent codes each: the
    cesimpg route must tell the bucket members apart by lifting, and takes
    the rref of each bucket's representative only.  At jobs=2 a worker
    keys codes 3 to 5 and pipes back their shortened forms."""
    spec = field(5)
    codes = [random_code(spec, 6, 3, seed=s) for s in (0, 1, 4, 32, 12, 38)]
    reduced = []
    monkeypatch.setattr(lift, "rref", lambda m: reduced.append(m) or rref(m))
    for algo in ("ceimpg", "cesimpg"):
        for jobs in (1, 2):
            result = classify(codes, algo=algo, jobs=jobs)
            assert len(forks) == jobs - 1
            assert all(p.exitcode == 0 for p in forks)
            forks.clear()
            assert [c.members for c in result.classes] == [[i] for i in range(6)]
            assert len(reduced) == (3 if algo == "cesimpg" else 0)
            reduced.clear()
    assert len({c.key_digest for c in result.classes}) == 3


def test_classify_lifts_members_onto_their_representative(monkeypatch):
    """Constructed classes of 3 and 4 monomial copies, interleaved, beside
    two codes of their own: the cesimpg route lifts each joining member
    onto its class representative, so it takes one rref per class that a
    member joins, of the representative's matrix, and none for a class
    that no member joins."""
    spec = field(5)
    rng = random.Random(7)
    a, b, c, d = (random_code(spec, 8, 3, seed=s) for s in (1, 2, 3, 4))
    copies = [GeneratorMatrix(spec, _random_transform(spec, 8, rng).apply(
        base.mat).rows) for base in (a, a, b, b, b)]
    codes = [a, b, copies[0], c, copies[2], copies[1], copies[3], d,
             copies[4]]
    reduced = []
    monkeypatch.setattr(lift, "rref", lambda m: reduced.append(m) or rref(m))
    result = classify(codes, algo="cesimpg")
    assert [cls.members for cls in result.classes] == [
        [0, 2, 5], [1, 4, 6, 8], [3], [7]]
    assert len(reduced) == 2 and reduced[0] is a.mat and reduced[1] is b.mat


def test_classify_keeps_code_and_dual_apart(forks):
    """A code and its dual have the same binary matrices when one of them is
    keyed through its dual: [13,3]_3 simplex beside the [13,10]_3 Hamming
    code, and a random [10,3]_5 code beside its [10,7]_5 dual (classify
    takes one field per batch), each followed by a column-reversed copy of
    both, so that all four are keyed.  At jobs=2 a worker keys the copies,
    so a form of a dual side comes back through the pipe."""
    simplex = GeneratorMatrix(3, simplex_generator(3, 3).rows)
    low = random_code(field(5), 10, 3, seed=2)
    classes = []
    for code in (simplex, low):
        pair = [code, _dual(code)]
        t = MonomialTransform(code.spec, tuple(reversed(range(code.n))),
                              (1,) * code.n)
        batch = pair + [GeneratorMatrix(c.spec, t.apply(c.mat).rows)
                        for c in pair]
        for algo, jobs in itertools.product(("ceimpg", "cesimpg"), (1, 2)):
            result = classify(batch, algo=algo, jobs=jobs)
            assert len(forks) == jobs - 1
            assert all(p.exitcode == 0 for p in forks)
            forks.clear()
            assert not result.errors
            assert [c.members for c in result.classes] == [[0, 2], [1, 3]]
        classes += result.classes
    assert len(classes) == 4


def _shortened_sigma0(c1, c2, route):
    """The coordinate permutation sigma0 that `lift._find_lift` tries
    first between the two codes on `route`: "pair" (cesimpg_equiv and
    decide_equivalence) finds it with bmcanon.is_isomorphic on the kept
    shortened matrices, "classify" reads it off their canonical forms."""
    s1, s2 = (equiv._Side(c) for c in (c1, c2))
    pi0 = (bmcanon.is_isomorphic(s1.kept, s2.kept) if route == "pair"
           else _sigma_from_canons(s1.form, s2.form))
    return lift._coordinate_perm(pi0, s1.points, s2.points)


def _sigma0_lifts(c1, c2, routes=("pair", "classify")):
    """Whether the sigma0 of any of `routes` lifts to a monomial map onto
    c2 (prime field)."""
    target = lift.LiftTarget(c2)
    return any(lift._lift(c1, target, _shortened_sigma0(c1, c2, route))
               is not None for route in routes)


def _fallback_pair():
    # a [16,6]_5 pair (an [8,6]_5 pair with every column doubled, so that
    # 2k <= n keeps it off the dual) whose sigma0 does not lift: with a
    # coset cap of 1 its comparison goes to the incidence matrices
    spec = field(5)
    pair = _transformed_pair(spec, 8, 6, seed=3, allow_rho=False)
    c1, c2 = (GeneratorMatrix(spec, [[x for x in row for _ in range(2)]
                                     for row in c.mat.rows]) for c in pair)
    assert not _sigma0_lifts(c1, c2)
    return spec, c1, c2


def test_cesimpg_witnessed_past_the_coset_cap(monkeypatch):
    # with a coset cap of 1 sigma0 is tried, then an isomorphism search
    # of the incidence matrices: where sigma0 does not lift, the isomorphism
    # found does, so the verdict carries a witness, and finding none denies
    # equivalence
    monkeypatch.setattr(lift, "COSET_CAP", 1)
    reads, _ = _incidence_use(monkeypatch)
    spec = field(5)
    # a [6,3]_5 pair whose sigma0 does not lift; for _fallback_pair()'s
    # [16,6]_5 codes see test_fallback_pair_witnessed_past_a_coset_cap_of_one
    c1, c2 = _transformed_pair(spec, 6, 3, seed=4, allow_rho=False)
    assert not _sigma0_lifts(c1, c2, ["pair"])
    v = decide_equivalence(c1, c2)
    assert (v.equivalent, v.method) == (True, "cesimpg")
    assert verify_witness(c1, c2, v.witness)
    assert len(reads) == 2  # the incidence search, not the coset, found it
    # same shortened key, and so the same weight profile, but inequivalent
    # (test_classify_bucket_with_several_classes)
    for s1, s2 in ((0, 1), (4, 32), (12, 38)):
        a, b = (random_code(spec, 6, 3, seed=s) for s in (s1, s2))
        assert _profile(a) == _profile(b)
        v = decide_equivalence(a, b)
        assert (v.equivalent, v.method, v.witness) == (False, "cesimpg", None)


def test_fallback_pair_witnessed_past_a_coset_cap_of_one(monkeypatch):
    """_fallback_pair()'s [16,6]_5 codes (3,906 points) at a coset cap of 1:
    sigma0 does not lift, and one isomorphism search of the two 3,906 x
    3,906 incidence matrices finds a map that lifts to a verified witness.
    The one canonical form built is the first side's 3,906 x 8 shortened
    matrix, for its point group (about 1.9 s of CPU in all, 2 vCPUs)."""
    _, c1, c2 = _fallback_pair()
    monkeypatch.setattr(lift, "COSET_CAP", 1)
    reads, forms = _incidence_use(monkeypatch)
    every_form = _counting(monkeypatch, "canonical_form")["canonical_form"]
    v = decide_equivalence(c1, c2)
    assert (v.equivalent, v.method) == (True, "cesimpg")
    assert verify_witness(c1, c2, v.witness)
    assert len(reads) == 2 and forms == []
    assert [(m.n_rows, m.n_cols) for m in every_form] == [(3906, 8)]


def _incidence_use(monkeypatch):
    """Record the characteristic vector of each incidence matrix
    (`equiv.build_ceimpg_matrix`) read inside `lift._find_lift`, where
    cesimpg_equiv and a cesimpg bucket comparison read them (through the
    names `equiv._find_lift` and `batch._find_lift`), so that the tests'
    own ceimpg_equiv cross-checks are not counted; and each incidence
    matrix that equiv or batch builds a canonical form of, anywhere.
    Returns (reads, forms)."""
    reads, forms, built, inside = [], [], [], []
    real_build, real_form = equiv.build_ceimpg_matrix, equiv.canonical_form
    real_lift = lift._find_lift

    def build(chi):
        m = real_build(chi)
        built.append(m)
        if inside:
            reads.append(chi)
        return m

    def form(m):
        if any(m is b for b in built):
            forms.append(m)
        return real_form(m)

    def find_lift(*args):
        inside.append(True)
        try:
            return real_lift(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(equiv, "build_ceimpg_matrix", build)
    for module in (equiv, batch):
        monkeypatch.setattr(module, "canonical_form", form)
        monkeypatch.setattr(module, "_find_lift", find_lift)
    return reads, forms


# seeds of independent codes of each shape below that share their weight
# profile, so that the pair reaches the canonical searches; over GF(8) and
# GF(9) they also share the shortened key, whose point group is not
# trivial, so past a coset cap of 1 the incidence search decides them
SHARED_PROFILE_SEEDS = {(4, 8, 3): [(2, 59), (8, 59)],
                        (8, 8, 3): [(0, 7), (12, 23)],
                        (9, 9, 3): [(27, 52), (6, 30)],
                        (5, 10, 4): [(8, 40), (11, 46)],
                        (2, 12, 4): [(4, 25), (5, 21)]}


@pytest.mark.parametrize("q,n,k", sorted(SHARED_PROFILE_SEEDS))
def test_incidence_lift_past_a_coset_cap_of_one(q, n, k, monkeypatch):
    """With a coset cap of 1, every pair that sigma0 does not decide goes
    to one isomorphism search of the two incidence matrices: seeded
    transformed pairs, with a nontrivial field automorphism over GF(4),
    GF(8) and GF(9), and independent pairs of the same shape.  Most
    independent pairs differ in their weight profile and never reach a
    search, so pairs that share it are added; over GF(8) and GF(9) they
    also share the shortened key, and the incidence search tells them
    apart.  Every verdict equals ceimpg_equiv's, and every equivalent one
    carries a witness that verifies.  A pair reads the incidence matrices
    of both codes or none, and no canonical form of one is built."""
    monkeypatch.setattr(lift, "COSET_CAP", 1)
    reads, forms = _incidence_use(monkeypatch)
    spec = field(q)
    pairs = [_transformed_pair(spec, n, k, seed) for seed in range(12)]
    pairs += [(random_code(spec, n, k, seed=s), random_code(spec, n, k,
                                                            seed=s + 1))
              for s in range(100, 106)]
    shared = [(random_code(spec, n, k, seed=a), random_code(spec, n, k,
                                                            seed=b))
              for a, b in SHARED_PROFILE_SEEDS[q, n, k]]
    assert all(_profile(c1) == _profile(c2) for c1, c2 in shared)
    pairs += shared
    verdicts, lifted_incidence = [], []
    for c1, c2 in pairs:
        before = len(reads)
        verdicts.append(cesimpg_equiv(c1, c2))
        assert len(reads) - before in (0, 2)
        lifted_incidence.append(len(reads) > before)
    for (c1, c2), v in zip(pairs, verdicts):
        assert v.method == "cesimpg"
        assert v.equivalent == ceimpg_equiv(c1, c2).equivalent
        assert (v.witness is not None) == v.equivalent
        assert not v.equivalent or verify_witness(c1, c2, v.witness)
    assert all(v.equivalent for v in verdicts[:12])
    assert not any(v.equivalent for v in verdicts[18:])
    if q in (8, 9):
        assert all(lifted_incidence[18:])
    # over GF(2) sigma0 always lifts (test_binary_sigma0_lifts_past_coset_cap);
    # over GF(4), GF(8) and GF(9) some of these pairs take the incidence search
    if q == 2:
        assert not reads
    if q in (4, 8, 9):
        assert reads
    assert forms == []


def test_classify_past_a_coset_cap_of_one(monkeypatch):
    # the codes of test_classify_bucket_with_several_classes and transformed
    # copies of three of them, not all reached by sigma0: at a coset cap of
    # 1 the partition is the one at the real cap, each comparison past it
    # reads the incidence matrices of both its codes, and no canonical form
    # of one is built
    spec = field(5)
    codes = [random_code(spec, 6, 3, seed=s) for s in (0, 1, 4, 32, 12, 38)]
    rng = random.Random(5)
    codes += [GeneratorMatrix(spec, _random_transform(spec, 6, rng).apply(
        codes[i].mat).rows) for i in (0, 2, 4)]
    expected = classify(codes, algo="cesimpg")
    assert [c.members for c in expected.classes] == [
        [0, 6], [1], [2, 7], [3], [4, 8], [5]]
    assert not all(_sigma0_lifts(codes[i], c, ["classify"]) for i, c in
                   zip((0, 2, 4), codes[6:]))
    monkeypatch.setattr(lift, "COSET_CAP", 1)
    reads, forms = _incidence_use(monkeypatch)
    result = classify(codes, algo="cesimpg")
    assert result.errors == []
    assert [c.members for c in result.classes] == [
        c.members for c in expected.classes]
    assert result.digest == expected.digest
    assert reads and len(reads) % 2 == 0
    assert forms == []


def _det3(a, b, c, q):
    return (a[0] * (b[1] * c[2] - b[2] * c[1]) - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])) % q


def _greedy_arc(q, size, seed):
    """The first `size` points of PG(2, q), in a seeded order, with no three
    collinear, taken greedily; None when the greedy arc stops short."""
    points = list(point_table(3, q).points)
    random.Random(seed).shuffle(points)
    arc = []
    for p in points:
        if all(_det3(a, b, p, q) for a, b in itertools.combinations(arc, 2)):
            arc.append(p)
            if len(arc) == size:
                return arc
    return None


def test_arcs_witnessed_past_the_real_coset_cap(monkeypatch):
    # every line meets a 10-arc of PG(2,11) in at most two points, so the
    # shortened rows are the same for every 10-arc and are fixed by every
    # permutation of its points: the point group is Sym(10), past the real
    # coset cap, but the orbit of a frame of four of the ten points has at
    # most 10*9*8*7 = 5,040 tuples.  sigma0 does not lift between the conic
    # ([10,3]_11 Reed-Solomon) code and its seeded copies, so each decision
    # goes to that orbit, with no incidence matrix read: a frame image
    # lifts to a witness for each copy, and none does between the conic
    # and a greedy 10-arc on no conic
    spec = field(11)
    conic = GeneratorMatrix.from_columns(spec, [(1, t, t * t % 11)
                                                for t in range(10)])
    arc = _greedy_arc(11, 10, seed=6)
    # the conic monomials x^2, y^2, z^2, xy, xz, yz at the arc's points
    # have rank 6: no conic passes through all ten.  Every 10-arc of
    # PG(2,11) has 45 secants, 30 tangents and 58 passants, so the two
    # codes share their weight profile and the pair reaches the searches
    assert rank(GFMatrix(spec, [[x * x % 11, y * y % 11, z * z % 11,
                                 x * y % 11, x * z % 11, y * z % 11]
                                for x, y, z in arc])) == 6
    other = GeneratorMatrix.from_columns(spec, arc)
    assert _profile(conic) == _profile(other) == (
        [8] * 45 + [9] * 30 + [10] * 58)
    assert canonical_form(build_shortened(conic)).group_order == (
        math.factorial(10))
    assert math.factorial(10) > COSET_CAP >= math.perm(10, 4)
    rng = random.Random(11)
    copies = [GeneratorMatrix(spec, _random_transform(spec, 10, rng).apply(
        conic.mat).rows) for _ in range(3)]
    assert not any(_sigma0_lifts(conic, c) for c in copies)
    for c in copies:
        v = decide_equivalence(conic, c)
        assert (v.equivalent, v.method) == (True, "cesimpg")
        assert verify_witness(conic, c, v.witness)
    reads, forms = _incidence_use(monkeypatch)
    v = decide_equivalence(conic, other)
    assert (v.equivalent, v.method, v.witness) == (False, "cesimpg", None)
    assert reads == []
    codes = [conic] + copies + [other]
    for algo in ("ceimpg", "cesimpg"):
        result = classify(codes, algo=algo)
        assert result.errors == []
        assert [c.members for c in result.classes] == [[0, 1, 2, 3], [4]]
        # the ceimpg keys are canonical forms of the five incidence
        # matrices; cesimpg builds none, and its four comparisons (codes 1
        # to 4 against code 0) take the frame orbit, reading none
        assert (len(forms), len(reads)) == ((5, 0) if algo == "ceimpg"
                                            else (0, 0))
        forms.clear()
    assert len({c.key_digest for c in result.classes}) == 1


FALLBACK_MSG = "BudgetExceededError: incidence search over budget"


def _failing_incidence_searches(monkeypatch):
    """Cap the coset at 1 and make every isomorphism search fail, as one
    over the node budget would; in `classify`, where pi0 is read off the
    keys' forms, only the incidence search past the cap runs one.  Returns
    the list of first matrices a search was asked for."""
    calls = []

    def failing(m1, m2):
        calls.append(m1)
        raise BudgetExceededError("incidence search over budget")

    monkeypatch.setattr(bmcanon, "is_isomorphic", failing)
    monkeypatch.setattr(lift, "COSET_CAP", 1)
    return calls


def test_classify_pair_fallback_errors_collected_not_raised(monkeypatch):
    _, c1, c2 = _fallback_pair()
    _failing_incidence_searches(monkeypatch)
    result = classify([c1, c2], algo="cesimpg")
    assert result.errors == [(1, FALLBACK_MSG)]
    assert [c.members for c in result.classes] == [[0]]


def test_classify_failed_incidence_search_is_one_error_per_comparison(
        monkeypatch):
    # no failure is kept: each later member of the bucket runs its own
    # incidence search against the representative, and each failed search
    # is that member's one per-item error
    spec, c1, c2 = _fallback_pair()
    copies = [GeneratorMatrix(spec, _random_transform(
        spec, 16, random.Random(seed), allow_rho=False).apply(c1.mat).rows)
        for seed in (7, 8)]
    assert not any(_sigma0_lifts(c1, c, ["classify"]) for c in copies)
    calls = _failing_incidence_searches(monkeypatch)
    result = classify([c1, c2] + copies, algo="cesimpg")
    assert result.errors == [(1, FALLBACK_MSG), (2, FALLBACK_MSG),
                             (3, FALLBACK_MSG)]
    assert [c.members for c in result.classes] == [[0]]
    assert len(calls) == 3


def _counting(monkeypatch, *names, module=equiv):
    """Record the first argument of every call of each of `names` in
    `module`; returns {name: list}."""
    calls = {}
    for name in names:
        real, seen = getattr(module, name), calls.setdefault(name, [])
        monkeypatch.setattr(module, name, lambda *a, real=real, seen=seen:
                            seen.append(a[0]) or real(*a))
    return calls


def test_side_structures_built_once_per_code(monkeypatch):
    """One cesimpg_equiv decision past a coset cap of 1, on a GF(8) pair
    that shares its shortened key and takes the incidence search, finds
    each code's side once, and for each side walks its columns once for
    its points, gathers its incidence columns and wraps them in its
    shortened matrix once, with no call of `build_shortened`; its
    incidence (`build_ceimpg_matrix`) is recolored once, by the
    multiplicities of the points that walk found, with no walk of its own
    and no `characteristic_vector`.  It runs
    no dot kernel per side: the columns are sliced out of the geometry's
    incidence, whose kernel runs at most once, as it is cached, and the
    codeword weights are read off them.  Its one canonical form is the
    first side's shortened matrix, for the point group.  A pair that
    differs in its weight profile starts no canonical search and no rref,
    reads no characteristic vector, and builds no shortened matrix at
    all."""
    monkeypatch.setattr(lift, "COSET_CAP", 1)
    calls = _counting(monkeypatch, "_side", "_locate",
                      "incidence_columns", "build_shortened",
                      "build_ceimpg_matrix", "canonical_form")
    calls.update(_counting(monkeypatch, "rref", module=lift))
    chi_walks = _counting(monkeypatch, "_locate", "characteristic_vector",
                          module=lincode)
    chi_walks = chi_walks["_locate"] + chi_walks["characteristic_vector"]
    kernel = _counting(monkeypatch, "nonzero_dot_bits", "_nonzero_dot_blocks",
                       module=projgeom)
    wrapped, from_bits = [], ColoredBinaryMatrix.from_bits.__func__
    monkeypatch.setattr(ColoredBinaryMatrix, "from_bits", classmethod(
        lambda cls, bits, *a: wrapped.append(bits)
        or from_bits(cls, bits, *a)))
    spec = field(8)
    a, b = SHARED_PROFILE_SEEDS[8, 8, 3][0]
    c1, c2 = (random_code(spec, 8, 3, seed=s) for s in (a, b))
    assert not cesimpg_equiv(c1, c2).equivalent
    sides = [id(c1), id(c2)]
    for name in ("_side", "_locate"):
        assert list(map(id, calls[name])) == sides
    assert chi_walks == []
    assert [m.counts for m in calls["build_ceimpg_matrix"]] == [
        characteristic_vector(c).counts for c in (c1, c2)]
    assert len(calls["incidence_columns"]) == 2
    assert calls["build_shortened"] == []
    assert [bits.shape for bits in wrapped] == [(73, 8)] * 2
    assert kernel["nonzero_dot_bits"] == []
    assert len(kernel["_nonzero_dot_blocks"]) <= 1
    assert calls["canonical_form"] == [equiv._Side(c1).kept]
    for q, n, k, seed in ((3, 10, 3, 0), (2, 9, 6, 0)):
        c1, c2 = (random_code(field(q), n, k, seed=s)
                  for s in (seed, seed + 100))
        assert _profile(c1) != _profile(c2)
        for seen in (*calls.values(), *kernel.values(), wrapped, chi_walks):
            seen.clear()
        assert not cesimpg_equiv(c1, c2).equivalent
        assert calls["canonical_form"] == calls["rref"] == []
        assert calls["build_ceimpg_matrix"] == chi_walks == []
        assert calls["build_shortened"] == wrapped == []
        assert len(calls["_side"]) == 2
        assert kernel["nonzero_dot_bits"] == []
        assert len(kernel["_nonzero_dot_blocks"]) <= 1
        # the [9,6]_2 pair is keyed on its duals
        assert [m.k for m in calls["_locate"]] == [
            min(k, n - k)] * 2
        assert len(calls["incidence_columns"]) == 2


def test_forked_keys_pipe_back_keys_and_forms(forks):
    """A `--jobs` worker keys the records it inherits and pipes back each
    code's (form, error), as this process keys it, where this process keys
    its own share on the records it holds.  The [8,6]_2 code is keyed on
    its dual, the [8,4]_2 codes on their minimum-weight rows.  A record of
    this process, given a piped form, still lifts."""
    c1, c2 = _transformed_pair(field(2), 8, 4, seed=7, allow_rho=False)
    codes = [c2, random_code(field(2), 8, 6, seed=0), c1]
    records = [equiv._Side(code) for code in codes]
    keyed = batch._forked_keys(records, "cesimpg", 3)
    assert len(forks) == 2
    for code, (form, error) in zip(codes, keyed):
        mine, _ = batch._code_key(equiv._Side(code), "cesimpg")
        assert error is None and isinstance(form, CanonResult)
        assert (form.key(), form) == (mine.key(), mine)
    assert records[0].form is keyed[0][0]
    assert "form" not in vars(records[1]) and "form" not in vars(records[2])
    # 4 minimum-weight rows of 15, and all 3 rows of the dual side
    assert [(rec.profile[0], form.n_rows) for rec, (form, _) in zip(
        records, keyed)] == [(False, 4), (True, 3), (False, 4)]
    rep, rec = records[2], records[0]
    rep.form = keyed[2][0]
    pi0 = _sigma_from_canons(rep.form, rec.form)
    assert lift._find_lift(rep, rec, pi0) is not None


def test_classify_comparison_over_the_incidence_bound_collected(monkeypatch):
    # past a coset cap of 1 the pair's comparison asks for the incidence
    # matrices on PG(2,5), 961 cells: over a bound of 960 it fails for code 1
    # alone, as a typed per-item error, and decide_equivalence raises it
    spec = field(5)
    c1, c2 = _transformed_pair(spec, 6, 3, seed=4, allow_rho=False)
    assert not _sigma0_lifts(c1, c2)
    monkeypatch.setattr(lift, "COSET_CAP", 1)
    monkeypatch.setattr(projgeom, "MAX_INCIDENCE_CELLS", 960)
    result = classify([c1, c2], algo="cesimpg")
    assert result.errors == [(1, "ResourceLimitError: the incidence matrix "
                                 "of PG(2,5) has 961 cells, over the 960 "
                                 "limit")]
    assert [c.members for c in result.classes] == [[0]]
    with pytest.raises(ResourceLimitError):
        decide_equivalence(c1, c2)


def test_dimension_two_fallback_never_guesses():
    """[18,2]_5 codes whose four points carry multiplicities 6,5,4,3: on
    PG(1,5) the incidence is a matching, so the ceimpg key cannot tell them
    apart and no decision may fall back to it.  |H1| is 6!5!4!3! =
    12,441,600, past the coset cap, but all of it permutes the coordinates
    of each point, so only a frame's orbit under the point group is
    searched and every pair is decided: each verdict matches GL(2,5), each equivalent one carries a
    verified witness, and classify places both codes with no errors."""
    spec = field(5)
    points = point_table(2, 5).points
    rng = random.Random(2)

    def code(support):
        return GeneratorMatrix.from_columns(
            spec, [p for p, m in zip(support, (6, 5, 4, 3)) for _ in range(m)])

    codes, truths = [], []
    for _ in range(30):
        c1, c2 = code(rng.sample(points, 4)), code(rng.sample(points, 4))
        codes += [c1, c2]
        truth = brute_force_equivalent(c1.mat.rows, c2.mat.rows, 5)
        truths.append(truth)
        v = decide_equivalence(c1, c2)
        assert (v.equivalent, v.method) == (truth, "cesimpg")
        assert (v.witness is not None) == truth
        assert not truth or verify_witness(c1, c2, v.witness)
        result = classify([c1, c2], algo="cesimpg")
        assert result.errors == []
        assert [c.members for c in result.classes] == (
            [[0, 1]] if truth else [[0], [1]])
    assert any(truths) and not all(truths)
    result = classify(codes, algo="cesimpg")
    assert result.errors == []
    reps = [codes[cls.representative].mat.rows for cls in result.classes]
    for cls, rep in zip(result.classes, reps):
        assert all(brute_force_equivalent(rep, codes[i].mat.rows, 5)
                   for i in cls.members)
    assert not any(brute_force_equivalent(a, b, 5)
                   for a, b in itertools.combinations(reps, 2))


# ---------------------------------------------------------------------------
# classification: profiles first, keys only where profiles collide


@pytest.mark.parametrize("q,n,k", [(4, 8, 3), (8, 8, 3), (2, 12, 4)])
def test_profile_pass_partitions_as_pairwise_decisions(monkeypatch, forks,
                                                       q, n, k):
    """A batch of inequivalent codes that share a profile
    (SHARED_PROFILE_SEEDS), codes with profiles of their own, and seeded
    monomial copies of every third code (semilinear over GF(4) and GF(8)),
    shuffled: on both routes at jobs 1 and 2 it has the partition, classes
    in order of first appearance, that pairwise `decide_equivalence` gives.
    Only the codes whose profile another code shares are keyed."""
    spec = field(q)
    rng = random.Random(4900 + q)
    seeds = sorted({s for pair in SHARED_PROFILE_SEEDS[q, n, k] for s in pair})
    codes = [random_code(spec, n, k, seed=s) for s in [*seeds, *range(200,
                                                                     206)]]
    codes += [GeneratorMatrix(spec, _random_transform(spec, n, rng).apply(
        c.mat).rows) for c in codes[::3]]
    rng.shuffle(codes)
    shared = collections.Counter(equiv._Side(c).profile for c in codes)
    colliding = sum(m for m in shared.values() if m > 1)
    assert 0 < colliding < len(codes)
    want: list[list[int]] = []
    for i, code in enumerate(codes):
        cls = next((m for m in want if decide_equivalence(
            codes[m[0]], code).equivalent), None)
        if cls is None:
            want.append([i])
        else:
            cls.append(i)
    assert any(len(m) > 1 for m in want)
    keyed = _counting(monkeypatch, "_code_key", module=batch)["_code_key"]
    for algo, jobs in itertools.product(("ceimpg", "cesimpg"), (1, 2)):
        result = classify(codes, algo=algo, jobs=jobs)
        assert len(forks) == jobs - 1 and all(p.exitcode == 0 for p in forks)
        forks.clear()
        assert result.errors == []
        assert [c.members for c in result.classes] == want
        # at jobs=2 this process keys the first half, rounded down, and
        # the worker the rest, in its own memory
        assert len(keyed) == colliding // jobs
        keyed.clear()


def test_profile_unique_batch_is_never_keyed(monkeypatch, forks, searches):
    """20 seeded [20,3]_7 codes, each with a profile of its own: on both
    routes at jobs=2, with FORK_PAYS_S = 0, classify starts no worker and
    no search, so builds no canonical form.  Each code is a class keyed by
    its profile key, which does not start with b"c", as a canonical key
    does; the batch digest hashes those keys, and reads the same at jobs=1."""
    codes = [random_code(field(7), 20, 3, seed=s) for s in range(20)]
    keys = [batch._profile_key(equiv._Side(c).profile) for c in codes]
    assert len(set(keys)) == len(codes)
    assert not any(key.startswith(b"c") for key in keys)
    forms = _counting(monkeypatch, "canonical_form", module=batch)
    forms.update(_counting(monkeypatch, "canonical_form", module=equiv))
    for algo in ("ceimpg", "cesimpg"):
        result = classify(codes, algo=algo, jobs=2)
        assert forks == [] and searches == []
        assert forms == {"canonical_form": []}
        assert result.errors == []
        assert [c.members for c in result.classes] == [[i] for i in range(20)]
        assert [c.key_digest for c in result.classes] == [
            hashlib.sha256(key).hexdigest()[:12] for key in keys]
        assert result.digest == hashlib.sha256(
            b"".join(sorted(keys))).hexdigest()
        assert classify(codes, algo=algo, jobs=1).digest == result.digest


# per field, the [n,k] of four codes given seeded copies, of six codes with
# profiles of their own, and of a code given beside its dual
ONE_KEY_SHAPES = {2: ((7, 3), (12, 4), (8, 3)),
                  3: ((8, 3), (12, 3), (9, 3)),
                  4: ((7, 3), (10, 3), (8, 3))}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("algo", ["ceimpg", "cesimpg"])
@pytest.mark.parametrize("q", sorted(ONE_KEY_SHAPES))
def test_class_key_is_profile_then_form(forks, q, algo, jobs):
    """Every class key is the profile key of its representative
    (`batch._profile_key`), followed by the `CanonResult.key()` of its
    canonical form when that profile collides with another code's.  The
    batch mixes profile-unique codes, seeded copies, and a code and its
    dual (whose side is the code's), each with a column-reversed copy:
    the two land in classes of their own.  Each `key_digest` hashes that
    key, no key is a prefix of another, so the sorted keys concatenated
    read back as those keys, and the batch `digest` hashes them."""
    spec = field(q)
    rng = random.Random(50 + q)
    (n1, k1), (n2, k2), (n3, k3) = ONE_KEY_SHAPES[q]
    codes = [random_code(spec, n1, k1, seed=s) for s in range(4)]
    codes += [GeneratorMatrix(spec, _random_transform(spec, n1, rng).apply(
        c.mat).rows) for c in codes]
    codes += [random_code(spec, n2, k2, seed=s) for s in range(6)]
    rng.shuffle(codes)
    low = random_code(spec, n3, k3, seed=1)
    pair = [low, _dual(low)]
    t = MonomialTransform(spec, tuple(reversed(range(n3))), (1,) * n3)
    codes += pair + [GeneratorMatrix(spec, t.apply(c.mat).rows) for c in pair]
    records = [equiv._Side(c) for c in codes]
    profiles = [batch._profile_key(rec.profile) for rec in records]
    shared = collections.Counter(profiles)
    result = classify(codes, algo=algo, jobs=jobs)
    assert len(forks) == jobs - 1 and all(p.exitcode == 0 for p in forks)
    assert result.errors == []
    m = len(codes) - 4
    assert [m, m + 2] in [c.members for c in result.classes]
    assert [m + 1, m + 3] in [c.members for c in result.classes]
    keys = []
    for cls in result.classes:
        rep, key = records[cls.representative], profiles[cls.representative]
        if shared[key] > 1:
            key += batch._code_key(rep, algo)[0].key()
        assert cls.key_digest == hashlib.sha256(key).hexdigest()[:12]
        keys.append(key)
    kinds = {(len(key) > len(profiles[cls.representative]),
              records[cls.representative].profile[0])
             for cls, key in zip(result.classes, keys)}
    assert kinds == {(False, False), (True, False), (True, True)}
    assert not any(a != b and b.startswith(a) for a in keys for b in keys)
    blob, read = b"".join(sorted(keys)), []
    while blob:
        rest = _read_key(blob)[4]
        read.append(blob[:len(blob) - len(rest)])
        blob = rest
    assert read == sorted(keys)
    assert result.digest == hashlib.sha256(b"".join(read)).hexdigest()
