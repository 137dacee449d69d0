"""Exhaustive classifications of small shapes, checked against counting.

The equivalence classes of [n,k]_q codes with no zero column are the
orbits of PΓL(k,q) on the n-multisets of points of PG(k-1,q) that span
it (PGL(k,q) when q is prime).  Burnside's lemma counts the orbits on all
n-multisets: T_k(n) is the mean over the group of the coefficient of x^n
in the product of 1/(1 - x^len) over the cycles of an element on the
points.  A multiset spans exactly one subspace; the group is transitive on
the subspaces of each dimension, and a subspace's stabilizer induces its
full PΓL, so the
spanning orbits number N_k(n) = T_k(n) - sum_{j<k} N_j(n) (Fripertinger
and Kerber, Isometry classes of indecomposable linear codes, AAECC-11,
LNCS 948, 1995).  The mass formula adds the orbit lengths back up to the
number of spanning multisets.

The points, the spanning test and the group are built here from the
field's own addition and multiplication tables (`_field`: integers mod a
prime q, GF(4) from x^2 + x + 1 and GF(8) from x^3 + x + 1), not with the
library's field, point tables or `code_from_chi`; only `GeneratorMatrix`,
`classify` and `code_aut_group` are the library's.  GF(4) and GF(8) check
partitions over composite fields, whose groups have the Frobenius powers
besides the matrices; on [6,2]_8 they change the count (11 classes over
PΓL(2,8), 13 orbits of PGL(2,8)).
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest

from codequiv import GeneratorMatrix, classify, code_aut_group
from conftest import brute_force_preserver_count, gl_matrices

# (n, k, q) -> the number of spanning n-multisets of points of PG(k-1, q)
SHAPES = {(7, 2, 5): 786, (6, 2, 7): 1708, (7, 3, 2): 1478, (6, 2, 4): 205,
          (6, 2, 8): 2994}
# the binary extension fields' moduli, in the library's encoding of a
# polynomial as the int whose bit i holds the coefficient of x^i: x^2 + x + 1
# and x^3 + x + 1
MODULI = {4: 0b111, 8: 0b1011}


@functools.cache
def _field(q: int):
    """(add, mul, inv) tables of GF(q), q prime or in `MODULI`, in the
    library's encoding of elements as ints: residues mod q, and c0 + 2*c1 +
    4*c2 + ... for the element c0 + c1*a + c2*a^2 + ... of GF(2^m), where a
    is a root of the modulus."""
    if q in MODULI:
        m = q.bit_length() - 1

        def times(x, y):
            # the carry-less product, then each bit from x^(2m-2) down to
            # x^m cleared by the modulus shifted under it
            r = 0
            for i in range(m):
                if y >> i & 1:
                    r ^= x << i
            for i in range(2 * m - 2, m - 1, -1):
                if r >> i & 1:
                    r ^= MODULI[q] << (i - m)
            return r
        add = [[x ^ y for y in range(q)] for x in range(q)]
        mul = [[times(x, y) for y in range(q)] for x in range(q)]
    else:
        add = [[(x + y) % q for y in range(q)] for x in range(q)]
        mul = [[x * y % q for y in range(q)] for x in range(q)]
    inv = [row.index(1) if x else 0 for x, row in enumerate(mul)]
    return add, mul, inv


def _automorphisms(q: int) -> list[tuple[int, ...]]:
    """The field automorphisms of GF(q), as tables: the powers of the
    Frobenius map x -> x^p, p the characteristic (only the identity when q
    is prime)."""
    _, mul, _ = _field(q)
    p = next(d for d in range(2, q + 1) if q % d == 0)

    def power(x):
        y = 1
        for _ in range(p):
            y = mul[y][x]
        return y

    maps = [tuple(range(q))]
    while True:
        nxt = tuple(power(x) for x in maps[-1])
        if nxt == maps[0]:
            return maps
        maps.append(nxt)


def _points(k: int, q: int) -> list[tuple[int, ...]]:
    """The points of PG(k-1, q): nonzero vectors whose first nonzero entry
    is 1."""
    return [v for v in itertools.product(range(q), repeat=k)
            if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]


def _normalize(v, q: int) -> tuple[int, ...]:
    _, mul, inv = _field(q)
    scale = mul[inv[next(x for x in v if x)]]
    return tuple(scale[x] for x in v)


def _rank(vectors, q: int) -> int:
    """Rank over GF(q) by Gaussian elimination."""
    add, mul, inv = _field(q)
    neg = [row.index(0) for row in add]
    rows, rank = [list(v) for v in vectors], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        scale = mul[inv[rows[rank][col]]]
        rows[rank] = [scale[x] for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = mul[neg[rows[r][col]]]
                rows[r] = [add[x][f[y]] for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@functools.cache
def _census(n: int, k: int, q: int):
    """(points, multisets, codes): every spanning n-multiset of points of
    PG(k-1, q), as a sorted tuple of point indices, and its code, whose
    columns are those points in that order."""
    points = _points(k, q)
    multisets = [m for m in itertools.combinations_with_replacement(
        range(len(points)), n) if _rank({points[i] for i in m}, q) == k]
    codes = [GeneratorMatrix(q, [list(row) for row in zip(
        *(points[i] for i in m))]) for m in multisets]
    return points, multisets, codes


def _multisets_fixed(cycles, n: int) -> int:
    """The coefficient of x^n in the product of 1/(1 - x^len) over the
    cycle lengths: the n-multisets that a permutation with these cycles
    fixes."""
    coeffs = [1] + [0] * n
    for length in cycles:
        for d in range(length, n + 1):
            coeffs[d] += coeffs[d - length]
    return coeffs[n]


def _cycle_lengths(perm) -> list[int]:
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, p = 0, start
        while p not in seen:
            seen.add(p)
            p, length = perm[p], length + 1
        if length:
            lengths.append(length)
    return lengths


@functools.cache
def _orbits_all(n: int, k: int, q: int) -> int:
    """T_k(n): the orbits of ΓL(k, q) on all n-multisets of points of
    PG(k-1, q), by Burnside over the whole group: every invertible matrix g
    after every field automorphism f, the point p going to g f(p) (scalars
    fix every point, so the mean over ΓL is the mean over PΓL)."""
    add, mul, _ = _field(q)
    points = _points(k, q)
    index = {p: i for i, p in enumerate(points)}
    gl = [g for g in itertools.product(
        itertools.product(range(q), repeat=k), repeat=k) if _rank(g, q) == k]
    autos = _automorphisms(q)
    total = 0
    for g, f in itertools.product(gl, autos):
        perm = []
        for p in points:
            image = []
            for row in g:
                y = 0
                for a, x in zip(row, p):
                    y = add[y][mul[a][f[x]]]
                image.append(y)
            perm.append(index[_normalize(image, q)])
        total += _multisets_fixed(_cycle_lengths(perm), n)
    assert total % (len(gl) * len(autos)) == 0
    return total // (len(gl) * len(autos))


def burnside_spanning(n: int, k: int, q: int) -> int:
    """N_k(n) = T_k(n) - sum_{j<k} N_j(n): the orbits on the spanning
    n-multisets, that is, the equivalence classes of [n,k]_q codes with no
    zero column."""
    return _orbits_all(n, k, q) - sum(burnside_spanning(n, j, q)
                                      for j in range(1, k))


@functools.cache
def _classes(n: int, k: int, q: int, algo: str):
    result = classify(_census(n, k, q)[2], algo=algo)
    assert result.errors == []
    return result.classes


def test_census_counts_and_burnside_numbers():
    """The enumerations have the expected sizes: on PG(1, q) every
    multiset of q + 1 points but the n copies of one point spans, so
    C(q + n, n) - (q + 1) of them, 786, 1,708, 205 and 2,994.  Burnside's
    class counts are 14, 14, 21, 9 and 11; one dimension has one class.
    GF(4) has the identity and x -> x^2 as automorphisms, GF(8) those and
    x -> x^4, and their tables make fields.  On [6,2]_4 the Frobenius map
    changes no count: PΓL(2,4) is Sym(5) on the five points, and every
    6-multiset of them has two points of equal multiplicity, so a
    transposition fixes it and its Sym(5)-orbit is one orbit of PGL(2,4),
    the even permutations.  On [6,2]_8 it does: PGL(2,8) alone has 13
    orbits there."""
    assert {shape: len(_census(*shape)[1]) for shape in SHAPES} == SHAPES
    assert [math.comb(q + n, n) - (q + 1) for n, k, q in SHAPES
            if k == 2] == [786, 1708, 205, 2994]
    assert [burnside_spanning(*shape) for shape in SHAPES] == [
        14, 14, 21, 9, 11]
    assert burnside_spanning(7, 1, 5) == 1
    assert _automorphisms(4) == [(0, 1, 2, 3), (0, 1, 3, 2)]
    assert [f[2] for f in _automorphisms(8)] == [2, 4, 6]
    for q in MODULI:
        add, mul, inv = _field(q)
        for x, y, z in itertools.product(range(q), repeat=3):
            assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
            assert mul[x][mul[y][z]] == mul[mul[x][y]][z]
        assert all(mul[x][inv[x]] == 1 for x in range(1, q))


@pytest.mark.parametrize("n,k,q,algo", [
    (*shape, algo) for shape in SHAPES for algo in ("cesimpg", "ceimpg")])
def test_class_count_matches_burnside(n, k, q, algo):
    """Every spanning multiset of the shape, classified on one route: the
    class count is Burnside's.  On ceimpg a dimension-2 key over q >= 5,
    a matching on PG(1, q) whose group Sym(q+1) is larger than PΓL(2, q),
    merges classes, so its members are lifted."""
    assert len(_classes(n, k, q, algo)) == burnside_spanning(n, k, q)


def test_mass_formula_on_7_3_2():
    """The orbit lengths |PGL(3,2)| / |Stab| of the [7,3]_2 classes add up
    to the 1,478 spanning multisets.  |Stab| is the automorphism group
    order that `code_aut_group` reports for the class representative,
    divided by the m_p! permutations of its repeated coordinates (over
    GF(2) there are no scalings); each |Stab| also equals the count of
    matrices of GL(3,2) that fix the multiset."""
    n, k, q = 7, 3, 2
    _, multisets, codes = _census(n, k, q)
    pgl = len(gl_matrices(k, q)) // (q - 1)
    assert pgl == 168
    mass = Fraction(0)
    for cls in _classes(n, k, q, "cesimpg"):
        m = multisets[cls.representative]
        code = codes[cls.representative]
        report = code_aut_group(code)
        assert report.complete
        repeats = math.prod(math.factorial(m.count(i)) for i in set(m))
        assert report.order % repeats == 0
        stab = report.order // repeats
        assert stab == brute_force_preserver_count(code.mat.rows, q)
        mass += Fraction(pgl, stab)
    assert mass == len(multisets) == 1478
