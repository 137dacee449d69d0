"""Equivalence decisions, monomial lifting, witnesses, automorphism groups,
and batch classification, cross-checked against GL brute-force oracles."""

import contextlib
import itertools
import math
import multiprocessing
import os
import random
import signal
import time
import types

import pytest

from codequiv import (GFMatrix, GeneratorMatrix, build_ceimpg_matrix,
                      build_shortened, canonical_form, ceimpg_equiv,
                      cesimpg_equiv, characteristic_vector, classify,
                      code_aut_group, decide_equivalence, field,
                      monomial_from_sigma, point_table, random_code, rank,
                      rref, serialize, simplex_generator, systematic_form,
                      theta, verify_witness)
from codequiv import bmcanon, equiv, nullspace_basis
from codequiv.bmcanon import _sigma_from_canons
from codequiv.equiv import COSET_CAP, MonomialTransform
from codequiv.errors import BudgetExceededError, ResourceLimitError
from conftest import (brute_force_equivalent, brute_force_preserver_count,
                      reference_monomial_from_sigma)

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


# ---------------------------------------------------------------------------
# transform algebra


def test_transform_validation():
    spec = field(3)
    with pytest.raises(ValueError):
        MonomialTransform(spec, (0, 0), (1, 1), 0)  # not a permutation
    with pytest.raises(ValueError):
        MonomialTransform(spec, (0, 1), (1, 0), 0)  # zero scaling


# ---------------------------------------------------------------------------
# matrices handed to the canonicalizer


def test_ceimpg_matrix_shape_and_colors():
    g1 = GeneratorMatrix(3, G1_ROWS)
    chi = characteristic_vector(g1)
    m = build_ceimpg_matrix(chi)
    t = theta(2, 3)
    assert (m.n_rows, m.n_cols) == (t + 1, t)
    assert m.row_colors == (0,) * t + (1,)
    assert m.col_colors == chi.counts
    support = m.row_masks[-1]
    for j, c in enumerate(chi.counts):
        assert ((support >> (t - 1 - j)) & 1) == (1 if c else 0)


def test_shortened_matrix_hand_row():
    """For the worked G1, the hyperplane of (1,0,0) (table position 4)
    meets the columns in pattern 1,0,0,1,1,0."""
    g1 = GeneratorMatrix(3, G1_ROWS)
    m = build_shortened(g1)
    assert (m.n_rows, m.n_cols) == (13, 6)
    assert m.row_masks[4] == 0b100110
    assert m.col_colors == (1, 2, 1, 1, 1, 2)
    assert m.row_colors == (0,) * 13


# ---------------------------------------------------------------------------
# lifting


def test_lift_on_worked_example():
    g1 = GeneratorMatrix(3, G1_ROWS)
    g2 = GeneratorMatrix(3, G2_ROWS)
    sigma = (0, 2, 3, 1, 4, 5)  # the 3-cycle moving coordinates 2->3->4->2
    lift = monomial_from_sigma(g1, rref(g2.mat), sigma)
    assert lift is not None
    q_mat, lambdas = lift
    t = MonomialTransform(field(3), sigma, lambdas, 0)
    from codequiv.gfmatrix import mat_mul
    assert mat_mul(q_mat, g2.mat) == t.apply(g1.mat)


def test_lift_identity_on_self():
    spec = field(3)
    code = random_code(spec, 8, 3, seed=4)
    lift = monomial_from_sigma(code, rref(code.mat), tuple(range(8)))
    assert lift is not None
    q_mat, lambdas = lift
    assert all(l != 0 for l in lambdas)


def test_lift_shape_mismatch_raises():
    g1 = GeneratorMatrix(3, G1_ROWS)
    spec = field(3)
    with pytest.raises(ValueError):
        monomial_from_sigma(g1, rref(random_code(spec, 6, 2, seed=0).mat),
                            tuple(range(6)))
    with pytest.raises(ValueError):
        monomial_from_sigma(g1, rref(random_code(spec, 7, 3, seed=0).mat),
                            tuple(range(6)))


def test_simplex_lift_census_matches_gl_order():
    """Exhaustive over all 7! coordinate permutations of the [7,3] binary
    simplex: exactly |GL(3,2)| = 168 of them admit a monomial lift, since
    each invertible map realizes exactly one permutation here."""
    g = simplex_generator(3, 2)
    code = GeneratorMatrix(2, g.rows)
    red = rref(code.mat)
    count = 0
    for sigma in itertools.permutations(range(7)):
        if monomial_from_sigma(code, red, sigma) is not None:
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
    """The support-graph walk returns exactly the (Q, lambdas) of the
    nullspace search, or None with it, for every rho: on the coset
    candidates of transformed pairs, on random permutations, and on direct
    sums whose support graph has several components."""
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
        gs1, gs2 = (systematic_form(c)[0] for c in (code, copy))
        r1, r2 = (canonical_form(build_shortened(gs)) for gs in (gs1, gs2))
        sigma0 = _sigma_from_canons(r1, r2)
        sigmas = [tuple(sigma0[t] for t in tau) for tau in itertools.islice(
            equiv._iter_group(r1.generators, n), 24)]
        for _ in range(6):
            perm = list(range(n))
            rng.shuffle(perm)
            sigmas.append(tuple(perm))
        for g1, g2 in ((code, gs2), (gs1, gs1)):
            for sigma in sigmas:
                sigma_inv = [sigma.index(s) for s in range(k)]
                lead = GFMatrix(spec, [[row[i] for i in sigma_inv]
                                       for row in g1.mat.rows])
                singular += rank(lead) < k
                for rho in range(spec.m):
                    lift = monomial_from_sigma(g1, rref(g2.mat), sigma, rho)
                    want = reference_monomial_from_sigma(g1, g2, sigma, rho)
                    got = lift and (lift[0].rows, lift[1])
                    assert got == want, (sigma, rho)
                    hits += got is not None
                    misses += got is None
    assert hits and misses and singular


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


@pytest.mark.parametrize("q,n,k", [(2, 8, 3), (3, 8, 3), (5, 7, 2)])
def test_constructed_equivalences_prime(q, n, k):
    spec = field(q)
    for seed in range(12):
        c1, c2 = _transformed_pair(spec, n, k, seed)
        v = cesimpg_equiv(c1, c2)
        assert v.equivalent
        assert verify_witness(c1, c2, v.witness)
        assert ceimpg_equiv(c1, c2).equivalent


@pytest.mark.parametrize("q", [4, 9])
def test_constructed_equivalences_semilinear(q):
    spec = field(q)
    hit_rho = False
    for seed in range(12):
        c1, c2 = _transformed_pair(spec, 6, 3, seed)
        v = cesimpg_equiv(c1, c2)
        assert v.equivalent
        assert verify_witness(c1, c2, v.witness)
        hit_rho = hit_rho or v.witness.rho != 0
    assert hit_rho  # at least one pair genuinely needed the field automorphism


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


@pytest.mark.parametrize("n,k", [(6, 2), (8, 3), (10, 4), (12, 5), (12, 8)])
def test_binary_sigma0_lifts_past_coset_cap(n, k, monkeypatch):
    """For q = 2 the shortened rows are the codeword supports, so the first
    isomorphism between them always lifts: a coset cap of 1 never forces
    the fallback."""
    monkeypatch.setattr(equiv, "COSET_CAP", 1)
    spec = field(2)
    for seed in range(8):
        c1, c2 = _transformed_pair(spec, n, k, seed)
        v = cesimpg_equiv(c1, c2)
        assert v.equivalent and v.method == "cesimpg"
        assert verify_witness(c1, c2, v.witness)


def test_binary_golay_24_witnessed():
    # [23,12]_2 cyclic code of g = 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11,
    # with the parity bit appended to the raw rows; |Aut| = |M24| exceeds
    # the coset cap, so only sigma0 is tried
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    rows = [[0] * s + g + [0] * (23 - len(g) - s) for s in range(12)]
    rows = [r + [sum(r) % 2] for r in rows]
    spec = field(2)
    c1 = GeneratorMatrix(spec, rows)
    t = _random_transform(spec, 24, random.Random(24), allow_rho=False)
    c2 = GeneratorMatrix(spec, t.apply(c1.mat).rows)
    v = cesimpg_equiv(c1, c2)
    assert v.equivalent and v.method == "cesimpg"
    assert verify_witness(c1, c2, v.witness)


def test_repeated_point_past_the_coset_cap_witnessed():
    # a [6,3]_5 code with its first point repeated 10 more times, scaled:
    # |H1| >= 10! is past the coset cap, but the twin permutations never
    # change whether a candidate lifts, so only the point group is streamed
    # and the pair gets a witness where sigma0 alone does not lift
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
        assert r1.group_order > COSET_CAP >= r1.point_order
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
        gs = systematic_form(code)[0]
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


# ---------------------------------------------------------------------------
# high-rate codes: canonical forms of the dual, lifting on the code


def _dual(code):
    return GeneratorMatrix(code.spec, nullspace_basis(code.mat))


# q -> (n, k) shapes with 2k > n whose primal incidence stays small enough
# for the independent primal oracle below; n - k = 2 over q > 3 stays on
# the primal side
HIGH_RATE_SHAPES = {2: [(9, 6), (8, 5), (5, 3)], 3: [(7, 4), (6, 4), (5, 4)],
                    4: [(7, 4), (5, 3), (4, 3)], 5: [(7, 4), (5, 3), (4, 3)],
                    7: [(5, 3), (4, 3)], 8: [(5, 3), (4, 3)],
                    9: [(5, 3), (4, 3)]}


@pytest.mark.parametrize("q", sorted(HIGH_RATE_SHAPES))
def test_high_rate_pairs_agree_with_ceimpg_and_primal(q):
    """Seeded high-rate pairs, half of them transformed copies (with a
    nontrivial field automorphism over GF(4/8/9)), half independent: the
    verdict agrees with ceimpg_equiv and with the primal incidence
    structures, and every witness verifies."""
    spec = field(q)
    rng = random.Random(900 + q)
    duals = 0
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
            duals += equiv._side(c1).k == n - k
            v = cesimpg_equiv(c1, c2)
            assert v.method == "cesimpg"
            assert v.equivalent == ceimpg_equiv(c1, c2).equivalent
            primal = bmcanon.is_isomorphic(
                *(build_ceimpg_matrix(characteristic_vector(c)) for c in (c1, c2)))
            assert v.equivalent == (primal is not None)
            if j % 2 == 0:
                assert v.equivalent
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
    # a code without the weight-1 word is on the dual side, so inequivalent
    other = random_code(spec, 5, 3, seed=3)
    assert equiv._side(other).k == 2
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


def test_classify_groups_transformed_copies():
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


def test_classify_agreement_and_determinism():
    spec = field(3)
    codes = [random_code(spec, 9, 3, seed=s) for s in range(60)]
    r_ce = classify(codes, algo="ceimpg")
    r_cs = classify(codes, algo="cesimpg")
    assert len(r_ce.classes) == len(r_cs.classes)
    part_ce = sorted(tuple(c.members) for c in r_ce.classes)
    part_cs = sorted(tuple(c.members) for c in r_cs.classes)
    assert part_ce == part_cs  # identical partitions, not just counts
    again = classify(codes, algo="ceimpg")
    assert again.digest == r_ce.digest
    assert [c.members for c in again.classes] == [c.members for c in r_ce.classes]


def test_classify_jobs_parallel_identical():
    # 41 codes: neither 2 nor 3 divides the batch, so the shares are uneven
    spec = field(3)
    codes = [random_code(spec, 9, 3, seed=s) for s in range(41)]
    for algo in ("ceimpg", "cesimpg"):
        seq = classify(codes, algo=algo, jobs=1)
        for jobs in (2, 3):
            par = classify(codes, algo=algo, jobs=jobs)
            assert seq.digest == par.digest
            assert seq.errors == par.errors
            assert ([c.members for c in seq.classes]
                    == [c.members for c in par.classes])


@pytest.fixture
def forks(monkeypatch):
    """The worker processes classify starts, recorded through a stand-in
    for the fork context that starts real forked processes."""
    real = multiprocessing.get_context("fork")
    started = []

    class Process(real.Process):
        def start(self):
            started.append(self)
            super().start()

    def get_context(method):
        assert method == "fork"
        return types.SimpleNamespace(Pipe=real.Pipe, Process=Process)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return started


def test_classify_pool_sized_by_batch(forks):
    """jobs counts this process too and never exceeds the batch: 3 codes at
    jobs=64 start 2 workers, one code starts none."""
    spec = field(3)
    codes = [random_code(spec, 8, 3, seed=s) for s in range(3)]
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
    real = equiv._code_key

    def code_key(code, mode):
        for target, action in actions:
            if code is target:
                action()
        return real(code, mode)

    monkeypatch.setattr(equiv, "_code_key", code_key)


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
    codes = [random_code(field(3), 8, 3, seed=s) for s in range(4)]
    _act_on(monkeypatch, (codes[3], lambda: _raise(RuntimeError("boom"))))
    with pytest.raises(RuntimeError, match="^boom$"):
        classify(codes, algo="cesimpg", jobs=2)
    assert len(forks) == 1 and forks[0].exitcode == 0
    _assert_no_child_left()


def test_classify_worker_dying_unanswered_is_an_error(monkeypatch, forks):
    # 6 codes at jobs=3: the second worker keys codes 4 and 5 and exits with
    # status 3 on code 5; this process holds no copy of the sending end of
    # its pipe, so it reads EOF there rather than waiting forever
    codes = [random_code(field(3), 8, 3, seed=s) for s in range(6)]
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
    codes = [random_code(field(3), 8, 3, seed=s) for s in range(4)]
    _act_on(monkeypatch, (codes[0], lambda: _raise(exc("mine"))),
            (codes[2], lambda: time.sleep(60)))
    with _deadline(30), pytest.raises(exc, match="mine"):
        classify(codes, algo="cesimpg", jobs=2)
    assert len(forks) == 1 and forks[0].exitcode == -signal.SIGTERM
    _assert_no_child_left()


def test_classify_workers_see_module_state_under_spawn_default(monkeypatch):
    # workers are forked whatever the default start method is, so they run
    # with this process's NODE_BUDGET = 0 rather than a fresh import's
    spec = field(3)
    codes = [random_code(spec, 8, 3, seed=s) for s in range(5)]
    monkeypatch.setattr(bmcanon, "NODE_BUDGET", 0)
    default = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        for algo in ("ceimpg", "cesimpg"):
            seq = classify(codes, algo=algo, jobs=1)
            assert [idx for idx, _ in seq.errors] == list(range(5))
            par = classify(codes, algo=algo, jobs=2)
            assert par.errors == seq.errors
            assert [c.members for c in par.classes] == []
    finally:
        multiprocessing.set_start_method(default, force=True)


def test_classify_digests_pinned():
    # canonical serializations, and so the classify digests, change only on
    # purpose: 40 [10,3]_3 codes, most with repeated points, 10 high-rate
    # [10,7]_3 codes, most keyed by their duals, and a seeded copy of every
    # fifth, on both routes
    spec = field(3)
    codes = [random_code(spec, 10, 3, seed=s) for s in range(40)]
    codes += [random_code(spec, 10, 7, seed=s) for s in range(10)]
    rng = random.Random(17)
    codes += [GeneratorMatrix(spec, _random_transform(spec, 10, rng).apply(
        c.mat).rows) for c in codes[::5]]
    digests = {}
    for algo in ("ceimpg", "cesimpg"):
        result = classify(codes, algo=algo)
        assert result.errors == [] and len(result.classes) == 45
        digests[algo] = result.digest
    assert digests == {
        "ceimpg": "fdaefc211c6a4b162e55cfb6059dd92a"
                  "672cc7a001db364e4b07321232e88241",
        "cesimpg": "c8034bf0992f6d1c6f05a63592dc506e"
                   "80e7242ffa5cb65129edba749ab3b080"}


def test_classify_mixed_fields_rejected():
    with pytest.raises(ValueError):
        classify([random_code(field(3), 6, 2, seed=0),
                  random_code(field(5), 6, 2, seed=0)])


def test_classify_budget_errors_collected_not_raised(monkeypatch):
    # the forked workers inherit NODE_BUDGET = 0, so at jobs=2 the errors
    # come from this process's share and from the worker's share alike
    spec = field(3)
    codes = [random_code(spec, 8, 3, seed=s) for s in range(5)]
    monkeypatch.setattr(bmcanon, "NODE_BUDGET", 0)
    for algo in ("ceimpg", "cesimpg"):
        seq = classify(codes, algo=algo, jobs=1)
        assert [idx for idx, _ in seq.errors] == list(range(5))
        assert not seq.classes
        for idx, msg in seq.errors:
            assert "Budget" in msg
        par = classify(codes, algo=algo, jobs=2)
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


def test_classify_bucket_with_several_classes(monkeypatch):
    """Three shortened-key buckets of two inequivalent codes each: the
    cesimpg route must tell the bucket members apart by lifting, and takes
    the rref of the second member of each bucket only."""
    spec = field(5)
    codes = [random_code(spec, 6, 3, seed=s) for s in (0, 1, 4, 32, 12, 38)]
    reduced = []
    monkeypatch.setattr(equiv, "rref", lambda m: reduced.append(m) or rref(m))
    for algo in ("ceimpg", "cesimpg"):
        for jobs in (1, 2):
            result = classify(codes, algo=algo, jobs=jobs)
            assert [c.members for c in result.classes] == [[i] for i in range(6)]
            assert len(reduced) == (3 if algo == "cesimpg" else 0)
            reduced.clear()
    assert len(set(result._keys)) == 3


def test_classify_keeps_code_and_dual_apart():
    """A code and its dual have the same binary matrices when one of them is
    keyed through its dual: [13,3]_3 simplex beside the [13,10]_3 Hamming
    code, and a random [10,3]_5 code beside its [10,7]_5 dual (classify
    takes one field per batch)."""
    simplex = GeneratorMatrix(3, simplex_generator(3, 3).rows)
    low = random_code(field(5), 10, 3, seed=2)
    classes = []
    for batch in ([simplex, _dual(simplex)], [low, _dual(low)]):
        for algo, jobs in itertools.product(("ceimpg", "cesimpg"), (1, 2)):
            result = classify(batch, algo=algo, jobs=jobs)
            assert not result.errors
            assert [c.members for c in result.classes] == [[0], [1]]
        classes += result.classes
    assert len(classes) == 4


def _sigma0_lifts(c1, c2):
    """Whether the first isomorphism found between the shortened matrices of
    the two codes lifts to a monomial map onto rref(c2) (prime field)."""
    r1, r2 = (canonical_form(build_shortened(c)) for c in (c1, c2))
    return monomial_from_sigma(c1, rref(c2.mat),
                               _sigma_from_canons(r1, r2)) is not None


def _fallback_pair():
    # a [16,6]_5 pair (an [8,6]_5 pair with every column doubled, so that
    # 2k <= n keeps it off the dual) whose sigma0 does not lift: with a
    # coset cap of 1 its comparison falls back to the ceimpg key
    spec = field(5)
    pair = _transformed_pair(spec, 8, 6, seed=3, allow_rho=False)
    c1, c2 = (GeneratorMatrix(spec, [[x for x in row for _ in range(2)]
                                     for row in c.mat.rows]) for c in pair)
    assert not _sigma0_lifts(c1, c2)
    return spec, c1, c2


def test_cesimpg_falls_back_to_ceimpg_past_the_coset_cap(monkeypatch):
    # with a coset cap of 1 only sigma0 is tried: where it does not lift,
    # the ceimpg key decides, both ways, and no witness is given
    monkeypatch.setattr(equiv, "COSET_CAP", 1)
    spec = field(5)
    # a [6,3]_5 pair whose sigma0 does not lift; the ceimpg keys of
    # _fallback_pair()'s [16,6]_5 codes (3,906 points) take about 3 s of
    # CPU each on a 2-vCPU machine, too slow here
    c1, c2 = _transformed_pair(spec, 6, 3, seed=4, allow_rho=False)
    v = decide_equivalence(c1, c2)
    assert (v.equivalent, v.method, v.witness) == (True, "ceimpg-fallback", None)
    # same shortened key, inequivalent (test_classify_bucket_with_several_classes)
    for s1, s2 in ((0, 1), (4, 32), (12, 38)):
        v = decide_equivalence(random_code(spec, 6, 3, seed=s1),
                               random_code(spec, 6, 3, seed=s2))
        assert (v.equivalent, v.method) == (False, "ceimpg-fallback")


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


def test_arcs_fall_back_past_the_real_coset_cap():
    # every line meets a 10-arc of PG(2,11) in at most two points, so the
    # shortened rows are the same for every 10-arc and are fixed by every
    # permutation of its points: the point group is Sym(10), past the real
    # coset cap.  sigma0 does not lift between the conic ([10,3]_11
    # Reed-Solomon) code and its seeded copies, so each decision falls back
    # to the ceimpg key, which tells them from a greedy 10-arc on no conic
    spec = field(11)
    conic = GeneratorMatrix.from_columns(spec, [(1, t, t * t % 11)
                                                for t in range(10)])
    arc = _greedy_arc(11, 10, seed=6)
    # the conic monomials x^2, y^2, z^2, xy, xz, yz at the arc's points
    # have rank 6: no conic passes through all ten
    assert rank(GFMatrix(spec, [[x * x % 11, y * y % 11, z * z % 11,
                                 x * y % 11, x * z % 11, y * z % 11]
                                for x, y, z in arc])) == 6
    other = GeneratorMatrix.from_columns(spec, arc)
    assert canonical_form(build_shortened(conic)).point_order == (
        math.factorial(10))
    assert math.factorial(10) > COSET_CAP
    rng = random.Random(11)
    copies = [GeneratorMatrix(spec, _random_transform(spec, 10, rng).apply(
        conic.mat).rows) for _ in range(3)]
    assert not any(_sigma0_lifts(conic, c) for c in copies)
    for c, truth in [(c, True) for c in copies] + [(other, False)]:
        v = decide_equivalence(conic, c)
        assert (v.equivalent, v.method, v.witness) == (
            truth, "ceimpg-fallback", None)
    for algo in ("ceimpg", "cesimpg"):
        result = classify([conic] + copies + [other], algo=algo)
        assert result.errors == []
        assert [c.members for c in result.classes] == [[0, 1, 2, 3], [4]]
    assert len({c.key_digest for c in result.classes}) == 1


FALLBACK_MSG = "BudgetExceededError: ceimpg key over budget"


def _failing_ceimpg_keys(monkeypatch):
    """Cap the coset at 1 and make every ceimpg key fail, as one over the
    node budget would; returns the list of sides a key was asked for."""
    calls = []

    def failing(side):
        calls.append(side)
        raise BudgetExceededError("ceimpg key over budget")

    monkeypatch.setattr(equiv, "_ceimpg_key", failing)
    monkeypatch.setattr(equiv, "COSET_CAP", 1)
    return calls


def test_classify_pair_fallback_errors_collected_not_raised(monkeypatch):
    _, c1, c2 = _fallback_pair()
    _failing_ceimpg_keys(monkeypatch)
    result = classify([c1, c2], algo="cesimpg")
    assert result.errors == [(1, FALLBACK_MSG)]
    assert [c.members for c in result.classes] == [[0]]


def test_classify_failed_ceimpg_key_built_once(monkeypatch):
    # the representative's failing ceimpg key is kept and raised again for
    # every later member of its bucket instead of being rebuilt
    spec, c1, c2 = _fallback_pair()
    copies = [GeneratorMatrix(spec, _random_transform(
        spec, 16, random.Random(seed), allow_rho=False).apply(c1.mat).rows)
        for seed in (7, 8)]
    assert not any(_sigma0_lifts(c1, c) for c in copies)
    calls = _failing_ceimpg_keys(monkeypatch)
    result = classify([c1, c2] + copies, algo="cesimpg")
    assert result.errors == [(1, FALLBACK_MSG), (2, FALLBACK_MSG),
                             (3, FALLBACK_MSG)]
    assert [c.members for c in result.classes] == [[0]]
    assert len(calls) == 1


def test_dimension_two_fallback_never_guesses():
    """[18,2]_5 codes whose four points carry multiplicities 6,5,4,3: on
    PG(1,5) the incidence is a matching, so the ceimpg key cannot tell them
    apart and no decision may fall back to it.  |H1| is 6!5!4!3! =
    12,441,600, past the coset cap, but all of it is twin permutations, so
    only the point group is streamed and every pair is decided: each
    verdict matches GL(2,5), each equivalent one carries a verified
    witness, and classify places both codes with no errors."""
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
