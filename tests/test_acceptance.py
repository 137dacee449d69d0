"""End-to-end acceptance checks.  Each test exercises one criterion and
reports a single PASS/FAIL line in the terminal summary (see conftest)."""

import functools
import random
import time

import conftest
from conftest import (brute_force_equivalent, gl_matrices,
                      min_weight_exhaustive)

from codequiv import (GeneratorMatrix, canonical_form, ceimpg_equiv,
                      cesimpg_equiv, characteristic_vector, code_aut_group,
                      code_from_chi, decide_equivalence, emit_codes, field,
                      incidence, min_distance_hyperplane, parse_codes,
                      random_code, serialize, simplex_generator,
                      verify_witness)
from codequiv.bmcanon import ColoredBinaryMatrix, permute_columns
from codequiv import equiv
from codequiv.cli import main
from codequiv.equiv import (MonomialTransform, build_ceimpg_matrix,
                            build_shortened)
from codequiv.projgeom import codeword_weights


def _criterion(number):
    """Record one acceptance line per test, pass or fail."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as e:
                conftest.ACCEPTANCE_RESULTS.append(
                    (number, False, f"{type(e).__name__}: {e}"))
                raise
            conftest.ACCEPTANCE_RESULTS.append((number, True, detail))
        return wrapper
    return deco


def _random_transform(spec, n, rng, allow_rho=True):
    sigma = list(range(n))
    rng.shuffle(sigma)
    lambdas = tuple(rng.choice(spec.nonzero()) for _ in range(n))
    rho = rng.randrange(spec.m) if allow_rho else 0
    return MonomialTransform(spec, tuple(sigma), lambdas, rho)


def _profile(code):
    """The weight profile cesimpg_equiv compares before any canonical
    search: that of the shortened matrix of the code's side."""
    m = build_shortened(equiv._side(code))
    return sorted(codeword_weights(m.bits, m.col_colors))


# ---------------------------------------------------------------------------


@_criterion(1)
def test_acceptance_1_worked_example(worked_pair):
    """Worked ternary [6,3] pair: verdict, witness, oracle, under 5 s."""
    c1, c2 = worked_pair
    start = time.perf_counter()
    v = cesimpg_equiv(c1, c2)
    assert v.equivalent, "cesimpg did not declare the pair equivalent"
    assert v.witness is not None and verify_witness(c1, c2, v.witness), \
        "produced witness failed verification"
    assert brute_force_equivalent(c1.mat.rows, c2.mat.rows, 3), \
        "GL(3,3) brute-force oracle disagrees"
    assert len(gl_matrices(3, 3)) == 11232
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget is 5s"
    return (f"worked [6,3] ternary pair equivalent, witness verified, "
            f"11232-matrix oracle agrees, {elapsed:.2f}s < 5s")


@_criterion(2)
def test_acceptance_2_route_agreement():
    """Both decision routes agree on 1,000 seeded pairs of [10,3] and [10,4]
    ternary codes (plus transformed-copy spot checks).  cesimpg rejects most
    inequivalent pairs on their weight profiles alone; the ones that share
    a profile are counted, and must occur, so that the two canonical
    searches are compared too."""
    spec = field(3)
    rng = random.Random(424242)
    agree = lo = hi = equal_seen = inequal_seen = searched = 0
    for k, n_pairs in ((3, 500), (4, 500)):
        pool = [random_code(spec, 10, k, seed=s + 1000 * k) for s in range(60)]
        for _ in range(n_pairs):
            i = rng.randrange(60)
            j = rng.randrange(59)
            j += j >= i  # distinct indices
            a = ceimpg_equiv(pool[i], pool[j]).equivalent
            b = cesimpg_equiv(pool[i], pool[j]).equivalent
            agree += a == b
            equal_seen += b
            inequal_seen += not b
            searched += not b and _profile(pool[i]) == _profile(pool[j])
    for seed in range(20):  # guaranteed-equivalent extras
        base = random_code(spec, 10, 3, seed=seed)
        t = _random_transform(spec, 10, rng)
        copy = GeneratorMatrix(spec, t.apply(base.mat).rows)
        assert ceimpg_equiv(base, copy).equivalent
        assert cesimpg_equiv(base, copy).equivalent
    assert agree == 1000, f"only {agree}/1000 verdicts agree"
    assert equal_seen and inequal_seen, "pair sample never hit one verdict"
    assert searched, "no inequivalent pair shares a weight profile"
    return (f"1000/1000 verdicts agree across both routes "
            f"({equal_seen} equivalent, {inequal_seen} not, {searched} of "
            f"those past the weight profile)")


@_criterion(3)
def test_acceptance_3_small_instance_oracle():
    """200 random small pairs (n <= 6, k <= 3, q in {2,3}) match the GL
    brute-force oracle exactly.  None of their inequivalent pairs shares a
    weight profile, so three seeded [6,3]_2 pairs that do are added: they
    reach the canonical searches."""
    rng = random.Random(77)
    cells = [(q, k, n) for q in (2, 3) for k in (1, 2, 3)
             for n in range(k, 7) if n <= 6]
    checked = matched = 0
    while checked < 200:
        q, k, n = cells[checked % len(cells)]
        spec = field(q)
        c1 = random_code(spec, n, k, seed=rng.randrange(10 ** 6))
        if checked % 2:
            t = _random_transform(spec, n, rng)
            c2 = GeneratorMatrix(spec, t.apply(c1.mat).rows)
        else:
            c2 = random_code(spec, n, k, seed=rng.randrange(10 ** 6))
        want = brute_force_equivalent(c1.mat.rows, c2.mat.rows, q)
        got = decide_equivalence(c1, c2, "auto")
        assert got.equivalent == want, \
            f"mismatch at q={q} k={k} n={n}: oracle {want}, got {got.equivalent}"
        assert ceimpg_equiv(c1, c2).equivalent == want
        if got.equivalent:
            assert verify_witness(c1, c2, got.witness)
        checked += 1
        matched += 1
    spec = field(2)
    for a, b in ((13, 25), (13, 29), (13, 30)):
        c1, c2 = (random_code(spec, 6, 3, seed=s) for s in (a, b))
        assert _profile(c1) == _profile(c2)
        assert not brute_force_equivalent(c1.mat.rows, c2.mat.rows, 2)
        assert not decide_equivalence(c1, c2, "auto").equivalent
        assert not ceimpg_equiv(c1, c2).equivalent
        matched += 1
    return (f"{matched}/203 small-instance verdicts match the GL oracle, 3 "
            f"of them inequivalent pairs that share a weight profile")


@_criterion(4)
def test_acceptance_4_collineation_group_orders():
    """Automorphism groups of the Gram-support matrices have the projective
    collineation orders; the [7,3] binary simplex code has 168."""
    details = []
    for (k, q, want) in ((3, 2, 168), (3, 3, 5616), (4, 2, 20160)):
        inc = incidence(k, q)
        mat = ColoredBinaryMatrix.from_masks(inc.row_masks, inc.n_cols)
        got = canonical_form(mat).group_order
        formula = 1  # m * (1/(q-1)) * prod(q^k - q^i), with m = 1 here
        for i in range(k):
            formula *= q ** k - q ** i
        formula //= q - 1
        assert got == want == formula, \
            f"(k={k}, q={q}): got {got}, want {want}, formula {formula}"
        details.append(f"{got}")
    simplex = GeneratorMatrix(2, simplex_generator(3, 2).rows)
    rep = code_aut_group(simplex)
    assert rep.complete and rep.order == 168, \
        f"binary [7,3] simplex group order {rep.order}, want 168"
    return (f"group orders {'/'.join(details)} match the closed form; "
            f"simplex code group order 168")


@_criterion(5)
def test_acceptance_5_canonical_invariance():
    """100 random row/column relabelings leave the canonical serialization
    bit-identical."""
    rng = random.Random(31)
    bases = [random_code(field(3), 8, 3, seed=0),
             random_code(field(2), 7, 3, seed=1),
             random_code(field(4), 6, 3, seed=2),
             random_code(field(3), 9, 2, seed=3)]
    total = 0
    for code in bases:
        mat = build_ceimpg_matrix(characteristic_vector(code))
        reference = serialize(canonical_form(mat).matrix)
        for _ in range(25):
            rows = list(mat.row_masks)
            rng.shuffle(rows)
            shuffled = ColoredBinaryMatrix.from_masks(rows, mat.n_cols,
                                                      mat.col_colors)
            gamma = list(range(mat.n_cols))
            rng.shuffle(gamma)
            relabeled = permute_columns(shuffled, gamma)
            got = serialize(canonical_form(relabeled).matrix)
            assert got == reference, "serialization changed under relabeling"
            total += 1
    return f"{total}/100 relabelings give bit-identical canonical serializations"


@_criterion(6)
def test_acceptance_6_constructed_equivalences():
    """1,000 monomially transformed codes (with field automorphisms over
    GF(4)) are all declared equivalent with verifying witnesses."""
    rng = random.Random(99)
    shapes = ([(3, 10, 3)] * 400 + [(2, 8, 3)] * 300 + [(4, 6, 3)] * 300)
    false_negatives = 0
    rho_used = 0
    for i, (q, n, k) in enumerate(shapes):
        spec = field(q)
        c1 = random_code(spec, n, k, seed=i)
        t = _random_transform(spec, n, rng)
        rho_used += t.rho != 0
        c2 = GeneratorMatrix(spec, t.apply(c1.mat).rows)
        v = cesimpg_equiv(c1, c2)
        if not (v.equivalent and v.witness is not None
                and verify_witness(c1, c2, v.witness)):
            false_negatives += 1
    assert false_negatives == 0, f"{false_negatives} false negatives"
    assert rho_used > 0, "no transform exercised the field automorphism"
    return (f"1000/1000 transformed codes recovered with verified witnesses "
            f"({rho_used} used a field automorphism); 0 false negatives")


@_criterion(7)
def test_acceptance_7_simplex_properties():
    """Simplex codes: all-ones characteristic vector; minimum distances 9
    (ternary k=3) and 4 (binary k=3) match exhaustive codeword search."""
    for q, k in ((2, 3), (3, 3), (4, 2), (5, 2)):
        code = GeneratorMatrix(field(q), simplex_generator(k, q).rows)
        chi = characteristic_vector(code)
        assert all(c == 1 for c in chi.counts), f"chi(S_{q},{k}) not all ones"
    ternary = GeneratorMatrix(3, simplex_generator(3, 3).rows)
    binary = GeneratorMatrix(2, simplex_generator(3, 2).rows)
    d3 = min_distance_hyperplane(characteristic_vector(ternary))
    d2 = min_distance_hyperplane(characteristic_vector(binary))
    assert d3 == 9 == min_weight_exhaustive(ternary.mat.rows, 3)
    assert d2 == 4 == min_weight_exhaustive(binary.mat.rows, 2)
    return ("simplex characteristic vectors all-ones; distances 9 and 4 "
            "match exhaustive search")


@_criterion(8)
def test_acceptance_8_bench_scale(capsys):
    """Benchmark command on 10,000 seeded random [10,3] ternary codes:
    finishes within 60 s, both routes give the same class count, and a
    repeat run reproduces it exactly."""
    argv = ["bench", "-q", "3", "-k", "3", "-n", "10",
            "--count", "10000", "--seed", "1"]
    start = time.perf_counter()
    rc = main(argv)
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert rc == 0, f"bench exited {rc}"
    row = out.splitlines()[1].split()
    count_first = int(row[4])
    assert elapsed <= 60.0, f"bench took {elapsed:.1f}s, budget is 60s"
    rc2 = main(argv)
    out2 = capsys.readouterr().out
    assert rc2 == 0
    count_second = int(out2.splitlines()[1].split()[4])
    assert count_first == count_second, \
        f"class count changed across runs: {count_first} vs {count_second}"
    return (f"10,000 codes -> {count_first} classes in {elapsed:.1f}s <= 60s; "
            f"both routes and a repeat run agree")


@_criterion(9)
def test_acceptance_9_round_trips():
    """characteristic_vector inverts code_from_chi on 1,000 random
    multiplicity vectors; code files re-emit bit-exactly."""
    rng = random.Random(13)
    for i in range(1000):
        q = rng.choice([2, 3, 4, 5])
        k = rng.choice([2, 3])
        n = rng.randrange(k, 9)
        code = random_code(field(q), n, k, seed=i)
        chi = characteristic_vector(code)
        rebuilt = code_from_chi(code.spec, k, chi.counts)
        assert characteristic_vector(rebuilt).counts == chi.counts, \
            f"round-trip failed at iteration {i}"
    codes = [random_code(field(q), 8, 3, seed=s)
             for q in (2, 3, 9) for s in range(10)]
    for group in (codes[:10], codes[10:20], codes[20:]):
        text = emit_codes(group)
        assert emit_codes(parse_codes(text)) == text, "file round-trip drifted"
    return ("1000/1000 multiplicity-vector round-trips exact; "
            "code files re-emit bit-exactly")
