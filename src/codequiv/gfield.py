"""Arithmetic in finite fields GF(p^m) backed by log/antilog tables.

Field elements are plain ints in ``range(q)``.  The element
``c_0 + c_1*a + ... + c_{m-1}*a^(m-1)`` (``a`` the residue of x modulo the
field's irreducible polynomial) is encoded in base-p digits as
``c_0 + c_1*p + ... + c_{m-1}*p^(m-1)``.  For prime fields (m = 1) this is
ordinary arithmetic mod p.  Irreducible moduli use the same encoding with the
degree-m coefficient included, e.g. x^2+x+1 over GF(2) is 0b111 = 7.

Multiplication and inversion go through exponential/logarithm tables built
from a primitive element, so fields are limited to q <= 2**16.  Addition is
XOR of the digit encodings in characteristic 2 and goes through a Zech
logarithm table (log(1 + g^i) for each i) in the other composite fields.

A `FieldSpec` builds one set of tables with the field, every table O(q).
Its scalar methods act on one or two elements.  Loops that do arithmetic
per matrix entry read the same tables, or call the row kernels `scale` and
`add_scaled`, which split a sum as `FieldSpec.add` does: XOR when p = 2, a
sum mod p in the other prime fields, and the Zech table inline in the odd
composite ones.
"""

from __future__ import annotations

import operator

# Default irreducible moduli for the composite orders small enough to want
# one out of the box (base-p digit encoding, constant term first).
DEFAULT_MODULI = {
    4: 7,     # x^2 + x + 1
    8: 11,    # x^3 + x + 1
    9: 10,    # x^2 + 1
    16: 19,   # x^4 + x + 1
    25: 31,   # x^2 + x + 1
    27: 34,   # x^3 + 2x + 1
}

MAX_ORDER = 1 << 16


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p**m, p prime; raise if q is not a prime power."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValueError(f"field order {q} is not a prime power")
    return p, m


def _poly_digits(enc: int, p: int) -> list[int]:
    digits = []
    while enc:
        enc, d = divmod(enc, p)
        digits.append(d)
    return digits


def _poly_encode(digits: list[int], p: int) -> int:
    enc = 0
    for d in reversed(digits):
        enc = enc * p + d
    return enc


def _poly_mul_mod(a: int, b: int, modulus: int, p: int) -> int:
    """Multiply two GF(p)[x] polynomials (digit-int encoded) modulo `modulus`."""
    da = _poly_digits(a, p)
    db = _poly_digits(b, p)
    prod = [0] * (len(da) + len(db) - 1)
    for i, ca in enumerate(da):
        if ca:
            for j, cb in enumerate(db):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    return _poly_rem(_poly_encode(prod, p), modulus, p)


def _gf2_mul_mod(a: int, b: int, modulus: int, m: int) -> int:
    """Multiply two GF(2)[x] polynomials of degree below m (bit-encoded)
    modulo `modulus` of degree m: a carry-less product by shift and XOR,
    `a` reduced each time its degree reaches m."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= modulus
    return out


def _is_irreducible(modulus: int, p: int, m: int) -> bool:
    """Trial-divide by all monic polynomials of degree 1..m//2."""
    dm = _poly_digits(modulus, p)
    if len(dm) != m + 1:
        return False
    for deg in range(1, m // 2 + 1):
        lead = p ** deg
        for low in range(lead):
            divisor = lead + low  # monic of degree `deg`
            if _poly_rem(modulus, divisor, p) == 0:
                return False
    return True


def _poly_rem(a: int, b: int, p: int) -> int:
    da = _poly_digits(a, p)
    db = _poly_digits(b, p)
    deg_b = len(db) - 1
    inv_lead = pow(db[-1], p - 2, p)
    rem = list(da)
    for i in range(len(rem) - 1, deg_b - 1, -1):
        c = rem[i]
        if c:
            factor = (c * inv_lead) % p
            for j, cb in enumerate(db):
                rem[i - deg_b + j] = (rem[i - deg_b + j] - factor * cb) % p
    return _poly_encode(rem[:deg_b], p)


class FieldSpec:
    """A concrete GF(p^m) with its lookup tables, built with the field.

    Every table has O(q) entries, and per-entry loops read them in place
    of calling a method per entry.

    Attributes
    ----------
    q, p, m : int
        Field order, characteristic, extension degree.
    modulus : int
        Digit-encoded irreducible polynomial (0 for prime fields).
    log : list[int]
        ``log[a]`` is the discrete log of a != 0 to the primitive element
        g, the first of 2..q-1 of order q-1 (1 for q = 2), and ``log[0]``
        the sentinel 2(q-1).
    exp : list[int]
        Length 4(q-1)+1: ``exp[i]`` is g**i below 2(q-1)-1 and 0 from
        there on, so ``exp[log[a] + log[b]]`` is a*b for all a, b, as a sum
        of two logs is below 2(q-1)-1 and one with a sentinel in it at
        least 2(q-1).  `projgeom._dot_kernel` gathers its products through
        the same two tables.
    invs, negs : list[int]
        ``invs[a]`` is 1/a (``invs[0]`` is 0, never an inverse), ``negs[a]``
        is -a.
    zech : list[int] | None
        Odd-characteristic composite fields only, length 3(q-1):
        ``zech[d + q-1]`` is the log of 1 + g**d for -(q-1) <= d < 2(q-1),
        and the sentinel 2(q-1) where that sum is 0.
    """

    def __init__(self, q: int, modulus: int | None = None):
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds table limit {MAX_ORDER}")
        if modulus is not None and modulus < 0:
            # its digits would never end (_poly_digits)
            raise ValueError(f"modulus must be non-negative, got {modulus}")
        p, m = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        if m == 1:
            if modulus not in (None, 0):
                raise ValueError("prime fields take no modulus")
            self.modulus = 0
        else:
            if modulus is None:
                modulus = DEFAULT_MODULI.get(q)
                if modulus is None:
                    raise ValueError(
                        f"no default modulus for q={q}; pass one explicitly")
            if not _is_irreducible(modulus, p, m):
                raise ValueError(
                    f"modulus {modulus} is not a monic irreducible of degree {m} over GF({p})")
            self.modulus = modulus
        self._init_tables()

    # -- construction -----------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Table-free product, for bootstrapping the tables."""
        if self.m == 1:
            return (a * b) % self.p
        if self.p == 2:
            return _gf2_mul_mod(a, b, self.modulus, self.m)
        return _poly_mul_mod(a, b, self.modulus, self.p)

    def _init_tables(self) -> None:
        q, p, n = self.q, self.p, self.q - 1
        for g in range(1, q):  # g = 1 has order 1: primitive in GF(2) only
            seen = [False] * q
            x = 1
            powers = []
            while not seen[x]:
                seen[x] = True
                powers.append(x)
                x = self._mul_raw(x, g)
            if len(powers) == n:
                break
        else:
            raise ValueError(f"no primitive element found for q={q}")
        log = [2 * n] * q
        for i, v in enumerate(powers):
            log[v] = i
        exp = (powers * 2)[:2 * n - 1] + [0] * (2 * n + 2)
        self.log, self.exp = log, exp
        self.invs = [0] + [exp[-log[a] % n] for a in range(1, q)]
        # -1 = g^((q-1)/2) in odd characteristic, and 1 when p = 2
        half = n // 2 if p > 2 else 0
        self.negs = [exp[la + half] for la in log]
        self.zech = None
        if p > 2 and self.m > 1:
            # log(1 + g^d) repeats with period q-1; adding 1 bumps only the
            # constant base-p digit
            self.zech = [log[x - x % p + (x % p + 1) % p]
                         for x in powers] * 3
        self._frobenius: dict[int, list[int]] = {}

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        # a + b = a * (1 + b/a) via the Zech logarithm of b/a
        la = self.log[a]
        return self.exp[la + self.zech[self.q - 1 + self.log[b] - la]]

    def neg(self, a: int) -> int:
        return self.negs[a]

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.invs[a]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inversion of zero field element")
            return 1 if e == 0 else 0
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def frobenius(self, a: int, i: int = 1) -> int:
        """a ** (p**i), the i-th power of the Frobenius automorphism."""
        return self.frobenius_table(i)[a]

    def frobenius_table(self, i: int) -> list[int]:
        """The table of a -> a ** (p**i), built on first use."""
        i %= self.m
        table = self._frobenius.get(i)
        if table is None:
            # (g^l)^(p^i) = g^(l p^i); zero's sentinel log maps to 0
            e, n, exp = self.p ** i, self.q - 1, self.exp
            table = self._frobenius[i] = [exp[la * e % n] if la < n else 0
                                          for la in self.log]
        return table

    # -- row kernels -------------------------------------------------------

    def scale(self, f: int, ys) -> list[int]:
        """[f * y for y in ys]."""
        if self.m == 1:
            p = self.p
            return [f * y % p for y in ys]
        exp, log = self.exp, self.log
        lf = log[f]
        return [exp[lf + log[y]] for y in ys]

    def add_scaled(self, xs, f: int, ys) -> list[int]:
        """[x + f * y for x, y in zip(xs, ys)], for a nonzero f.  The sum is
        split as `add` splits it: XOR when p = 2, mod p in the other prime
        fields, and x + t = x (1 + t/x) through `zech` in the odd composite
        ones."""
        if self.q == 2:
            return [x ^ y for x, y in zip(xs, ys)]
        if self.m == 1:
            p = self.p
            return [(x + f * y) % p for x, y in zip(xs, ys)]
        exp, log = self.exp, self.log
        lf = log[f]
        if self.p == 2:
            return [x ^ exp[lf + log[y]] for x, y in zip(xs, ys)]
        zech = self.zech
        shift = lf + self.q - 1  # the log of t/x, offset into `zech`
        out = []
        for x, y in zip(xs, ys):
            if not y:
                out.append(x)
            elif not x:
                out.append(exp[lf + log[y]])
            else:
                lx = log[x]
                out.append(exp[lx + zech[shift + log[y] - lx]])
        return out

    # -- helpers -----------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    def dot(self, u, v) -> int:
        """Inner product of two equal-length vectors over the field."""
        acc = 0
        for a, b in zip(u, v):
            acc = self.add(acc, self.mul(a, b))
        return acc

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.q}, modulus={self.modulus})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldSpec)
                and self.q == other.q and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.q, self.modulus))

    def __reduce__(self):
        # unpickle as the cached instance, without shipping the tables
        return field, (self.q, self.modulus or None)


_CACHE: dict[tuple[int, int], FieldSpec] = {}


def field(q: int, modulus: int | None = None) -> FieldSpec:
    """Return a cached FieldSpec for GF(q) (default modulus when m > 1)."""
    key = (q, modulus if modulus is not None else DEFAULT_MODULI.get(q, 0))
    spec = _CACHE.get(key)
    if spec is None:
        spec = FieldSpec(q, modulus)
        _CACHE[key] = spec
        _CACHE[(q, spec.modulus)] = spec
    return spec


def normalize_vector(spec: FieldSpec, vec) -> tuple[tuple[int, ...], int]:
    """Scale `vec` so its first nonzero coordinate is 1.

    Returns ``(unit, scalar)`` with ``vec = scalar * unit`` coordinatewise.
    Raises ValueError on the zero vector.
    """
    for c in vec:
        if c != 0:
            lam = c
            break
    else:
        raise ValueError("cannot normalize the zero vector")
    return tuple(spec.scale(spec.invs[lam], vec)), lam


def as_ints(values) -> list[int]:
    """`values` as a list of ints.  Python ints, bools and NumPy integers
    pass; any other entry raises ValueError."""
    values = iter(values)  # a non-iterable stays a TypeError
    try:
        return list(map(operator.index, values))
    except TypeError as e:
        raise ValueError(f"entries must be integers: {e}") from None
