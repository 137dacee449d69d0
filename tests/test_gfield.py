"""Field arithmetic against hand-computed tables and exhaustive axioms."""

import itertools
import pickle
import random

import pytest

from codequiv import field, normalize_vector
from codequiv.gfield import DEFAULT_MODULI, MAX_ORDER, FieldSpec, _poly_mul_mod


# Hand-computed GF(4) with modulus x^2 + x + 1, elements 0, 1, x=2, x+1=3:
# x*x = x+1, x*(x+1) = x^2+x = 1, (x+1)^2 = x^2+1 = x.
GF4_MUL = {
    (0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0,
    (1, 1): 1, (1, 2): 2, (1, 3): 3,
    (2, 2): 3, (2, 3): 1,
    (3, 3): 2,
}
GF4_ADD = {
    (0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3,
    (1, 1): 0, (1, 2): 3, (1, 3): 2,
    (2, 2): 0, (2, 3): 1,
    (3, 3): 0,
}


def test_gf4_tables_by_hand():
    f = field(4)
    for (a, b), want in GF4_MUL.items():
        assert f.mul(a, b) == want
        assert f.mul(b, a) == want
    for (a, b), want in GF4_ADD.items():
        assert f.add(a, b) == want
        assert f.add(b, a) == want


def test_gf4_frobenius_squares():
    f = field(4)
    assert [f.frobenius(a, 1) for a in range(4)] == [0, 1, 3, 2]
    for a in range(4):
        assert f.frobenius(a, 1) == f.mul(a, a)
        assert f.frobenius(a, 2) == a


@pytest.mark.parametrize("q,x_cubed_etc", [
    # x^3 = x + 1 under x^3 + x + 1 (element x encodes as 2)
    (8, ("pow", 2, 3, 3)),
    # x^2 = -1 = 2 under x^2 + 1 (x encodes as 3 in base-3 digits)
    (9, ("mul", 3, 3, 2)),
    # x^4 = x + 1 under x^4 + x + 1
    (16, ("pow", 2, 4, 3)),
    # x^2 = -x - 1 = 4x + 4 under x^2 + x + 1 (x encodes as 5)
    (25, ("mul", 5, 5, 24)),
    # x^3 = -2x - 1 = x + 2 under x^3 + 2x + 1 (x encodes as 3)
    (27, ("pow", 3, 3, 5)),
])
def test_default_moduli_reduction_identities(q, x_cubed_etc):
    f = field(q)
    op, a, b, want = x_cubed_etc
    got = f.pow(a, b) if op == "pow" else f.mul(a, b)
    assert got == want


def test_gf49_explicit_modulus():
    # x^2 + 1 over GF(7) encodes as 1 + 0*7 + 1*49 = 50; then x*x = -1 = 6.
    f = field(49, modulus=50)
    assert f.mul(7, 7) == 6
    assert f.inv(7) == f.neg(7) == 42  # x * (-x) = -x^2 = 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    f = field(q)
    els = list(f.elements())
    assert len(els) == q
    for a, b in itertools.product(els, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a, b, c in itertools.product(els[:q], els[:q], els[:q]):
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


@pytest.mark.parametrize("q", [16, 25, 27, 49])
def test_large_field_spot_properties(q):
    f = field(q, 50 if q == 49 else None)
    sample = [1, 2, q // 2, q - 2, q - 1]
    for a in sample:
        assert f.mul(a, f.inv(a)) == 1
        assert f.frobenius(a, f.m) == a  # Frobenius has order m
        assert f.pow(a, q - 1) == 1      # multiplicative group order
    for a, b in itertools.product(sample, repeat=2):
        # Frobenius is a field automorphism
        assert f.frobenius(f.add(a, b), 1) == f.add(f.frobenius(a, 1),
                                                    f.frobenius(b, 1))
        assert f.frobenius(f.mul(a, b), 1) == f.mul(f.frobenius(a, 1),
                                                    f.frobenius(b, 1))


def test_prime_field_is_mod_arithmetic():
    for q in (2, 3, 5, 7, 11, 13):
        f = field(q)
        for a in range(q):
            for b in range(q):
                assert f.add(a, b) == (a + b) % q
                assert f.mul(a, b) == (a * b) % q


def test_exp_log_consistency():
    for q in (3, 4, 8, 9, 27):
        f = field(q)
        for a in f.nonzero():
            assert f.exp[f.log[a]] == a


def test_dot():
    f = field(3)
    assert f.dot((1, 2, 0), (1, 1, 5 % 3)) == 0  # 1 + 2 = 0 mod 3
    assert f.dot((1, 2), (2, 2)) == 0            # 2 + 4 = 6 = 0
    assert f.dot((), ()) == 0


def _digitwise_add(p, a, b):
    """Reference addition: add the base-p digits of a and b mod p."""
    out, shift = 0, 1
    while a or b:
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out += ((da + db) % p) * shift
        shift *= p
    return out


def _digitwise_neg(p, a):
    out, shift = 0, 1
    while a:
        a, da = divmod(a, p)
        out += ((-da) % p) * shift
        shift *= p
    return out


@pytest.mark.parametrize("q,modulus", [(4, None), (8, None), (9, None),
                                       (9, 14), (16, None), (25, None),
                                       (27, None), (49, 50)])
def test_table_add_neg_match_digitwise(q, modulus):
    f = field(q, modulus)
    for a in f.elements():
        assert f.neg(a) == _digitwise_neg(f.p, a)
        for b in f.elements():
            assert f.add(a, b) == _digitwise_add(f.p, a, b)


def test_field_cache_identity():
    assert field(4) is field(4)
    assert field(4) is field(4, DEFAULT_MODULI[4])
    assert field(3) is field(3)
    # an alternative irreducible gives a distinct, unequal spec
    alt = field(9, 14)  # x^2 + x + 2
    assert alt is not field(9)
    assert alt != field(9)
    assert field(9, 14) is alt


@pytest.mark.parametrize("q,modulus", [(5, None), (9, None), (9, 14)])
def test_pickle_returns_cached_spec(q, modulus):
    spec = field(q, modulus)
    data = pickle.dumps(spec)
    assert pickle.loads(data) is spec
    assert len(data) < 100  # the tables stay behind


def test_invalid_fields_rejected():
    with pytest.raises(ValueError):
        field(6)  # not a prime power
    with pytest.raises(ValueError):
        field(1)
    with pytest.raises(ValueError):
        field(4, modulus=4)  # x^2 is reducible
    with pytest.raises(ValueError):
        field(5, modulus=7)  # prime fields take no modulus
    for q in (9, 5):
        with pytest.raises(ValueError, match="non-negative"):
            field(q, modulus=-5)  # its digits would never end
    with pytest.raises(ValueError):
        field(MAX_ORDER * 2)
    with pytest.raises(ValueError):
        FieldSpec(32)  # no default modulus for 32; must be passed
    assert FieldSpec(32, 37).q == 32  # x^5 + x^2 + 1 works


def test_normalize_vector():
    f = field(3)
    unit, scalar = normalize_vector(f, (2, 1, 0))
    assert unit == (1, 2, 0) and scalar == 2
    unit, scalar = normalize_vector(f, (0, 0, 1))
    assert unit == (0, 0, 1) and scalar == 1
    f4 = field(4)
    unit, scalar = normalize_vector(f4, (3, 2))
    assert unit[0] == 1
    assert [f4.mul(scalar, u) for u in unit] == [3, 2]
    with pytest.raises(ValueError):
        normalize_vector(f, (0, 0, 0))


def test_normalize_vector_idempotent_and_projective():
    f = field(9)
    for vec in [(4, 7, 1), (0, 5, 3), (8, 0, 0)]:
        unit, scalar = normalize_vector(f, vec)
        assert unit[next(i for i, u in enumerate(unit) if u)] == 1
        again, s2 = normalize_vector(f, unit)
        assert again == unit and s2 == 1
        # every nonzero multiple normalizes to the same unit
        for c in f.nonzero():
            scaled = tuple(f.mul(c, v) for v in vec)
            assert normalize_vector(f, scaled)[0] == unit


# every field with a default modulus, the primes up to 31, a prime above
# 256, and composite fields above 256 of characteristic 2 and odd
# characteristic with explicit moduli (x^9 + x + 1 over GF(2), x^6 + x + 2
# over GF(3))
TABLE_FIELDS = ([(q, None) for q in DEFAULT_MODULI]
                + [(p, None) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
                + [(257, None), (512, 515), (729, 734)])


def _table_sample(f):
    """Every element up to q = 32, else 0, 1, q-1 and 24 seeded others."""
    if f.q <= 32:
        return list(f.elements())
    return [0, 1, f.q - 1] + random.Random(f.q).sample(range(2, f.q - 1), 24)


def _raw_pow(f, a, e):
    """a**e for e >= 0 by square-and-multiply on `FieldSpec._mul_raw`,
    which multiplies polynomials modulo the modulus and reads no table (in
    characteristic 2 by shift and XOR)."""
    out = 1
    while e:
        if e & 1:
            out = f._mul_raw(out, a)
        a = f._mul_raw(a, a)
        e >>= 1
    return out


# GF(2^16), the largest field, by its sample alone: its tables are too
# long for the all-element checks of test_tables_agree_with_field_methods
@pytest.mark.parametrize("q,modulus", TABLE_FIELDS + [(65536, 0x1002D)])
def test_tables_agree_with_polynomial_arithmetic(q, modulus):
    """The scalar methods against arithmetic built from no table: products,
    inverses, powers and Frobenius images by `_mul_raw`, sums and negations
    digit by digit; and the sentinel conventions the per-entry loops rely
    on.  In characteristic 2, `_mul_raw`'s shift-and-XOR product agrees
    with the digit-list product `_poly_mul_mod`."""
    f = field(q, modulus)
    n = q - 1
    assert len(f.log) == q and f.log[0] == 2 * n
    assert len(f.exp) == 4 * n + 1
    assert f.exp[2 * n - 1:] == [0] * (2 * n + 2)
    if f.p > 2 and f.m > 1:
        # 1 + g^d = 0 exactly where g^d = -1, that is d = (q-1)/2 mod q-1
        assert len(f.zech) == 3 * n
        assert [i for i, z in enumerate(f.zech) if z == 2 * n] == [
            n // 2, n + n // 2, 2 * n + n // 2]
        assert max(z for z in f.zech if z != 2 * n) < n
    else:
        assert f.zech is None
    sample = _table_sample(f)
    for a in sample:
        assert f.exp[f.log[a] + f.log[0]] == 0
        assert f.neg(a) == _digitwise_neg(f.p, a)
        if a:
            assert f._mul_raw(a, f.inv(a)) == 1
            assert f.pow(a, -1) == f.inv(a)
        for e in (0, 1, 2, n - 1, q, 3 * q + 1):
            assert f.pow(a, e) == _raw_pow(f, a, e)
        for i in range(f.m):
            assert f.frobenius(a, i) == _raw_pow(f, a, f.p ** i)
        for b in sample:
            assert f.mul(a, b) == f._mul_raw(a, b)
            assert f.add(a, b) == _digitwise_add(f.p, a, b)
            if f.p == 2 < f.q:
                assert f._mul_raw(a, b) == _poly_mul_mod(a, b, f.modulus, 2)


@pytest.mark.parametrize("q,modulus", TABLE_FIELDS)
def test_tables_agree_with_field_methods(q, modulus):
    """Each table, and each row kernel, against FieldSpec's scalar methods:
    on every element, and on every pair of elements (past q = 32, every
    element paired with a sample)."""
    f = field(q, modulus)
    els = list(f.elements())
    assert len(f.log) == len(f.invs) == len(f.negs) == q
    for a in els:
        assert f.negs[a] == f.neg(a)
        if a:
            assert f.invs[a] == f.inv(a)
            assert f.exp[f.log[a]] == a
        for i in range(f.m):
            assert f.frobenius_table(i)[a] == f.frobenius(a, i)
    sample = _table_sample(f)
    for a in sample:
        # a times every element, as one row and through the log sums
        prods = [f.mul(a, b) for b in els]
        assert f.scale(a, els) == prods
        assert [f.exp[f.log[a] + f.log[b]] for b in els] == prods
        if not a:
            continue
        # x + a*y for every x against rotations of y, so that every pair
        # (x, y) meets: every sum that is 0 among them
        for r in sample:
            ys = els[r:] + els[:r]
            assert f.add_scaled(els, a, ys) == [
                f.add(x, f.mul(a, y)) for x, y in zip(els, ys)]

