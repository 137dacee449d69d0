"""Projective geometry PG(k-1, q): point tables, simplex codes, incidence.

Points are the normalized nonzero vectors of GF(q)^k (first nonzero
coordinate 1), listed in lexicographic coordinate order; the table index of a
point is 1-based in every public interface.  A table holds only its k x
theta array `coords`, one byte per coordinate (two past q = 256), filled by
one vectorized unranking of that order; `points` builds tuples from it when
read.  A point's position is computed, not looked up: the theta(t-1, q)
points with fewer than t coordinates after their leading 1 come first, then
the q^t points with t in base-q order of those coordinates (`_ranks`, and
`point_at` the other way).  Hyperplanes are indexed by the
same table: hyperplane u is {x : u . x = 0}, and the incidence matrix records
the complement (the nonzero inner products), which is what the equivalence
algorithms consume.  One kernel computes them (_nonzero_dot_blocks):
nonzero_dot_bits gives its entries for any vectors as a 0/1 array, and
incidence() packs its blocks, one after another, into one preallocated
array of the byte records a ColoredBinaryMatrix stores.  codeword_weights
reads a code's hyperplane weights off such an array, each column counted
by its point's multiplicity.  The incidence matrix is symmetric, and keeps
its bit array from its first use on.  A shortened matrix's entries are the
incidence's columns at its points (incidence_columns): one gather from
that cached bit array when the whole incidence fits in one kernel block,
else the kernel's output for those points alone.  point_at gives one point
of a table without building the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .bmcanon import ColoredBinaryMatrix
from .errors import ResourceLimitError
from .gfield import FieldSpec, as_ints, field
from .gfmatrix import GFMatrix

MAX_POINTS = 2_000_000
# An incidence matrix and its canonical search peak at about 11 bytes of
# memory per cell: PG(12,2), 8,191 points and about 0.8 GB, is allowed, and
# PG(13,2), 16,383 points and about 2.9 GB, is refused
MAX_INCIDENCE_CELLS = 10 ** 8


def theta(r: int, q: int) -> int:
    """Number of points of PG(r, q): (q^(r+1) - 1) / (q - 1)."""
    if r < 0:
        return 0
    return (q ** (r + 1) - 1) // (q - 1)


@dataclass(frozen=True, eq=False)
class PointTable:
    """All points of PG(k-1, q) in lexicographic order, as one k x theta
    array `coords`: column i is the point at position i."""
    spec: FieldSpec
    k: int
    coords: np.ndarray

    def __len__(self) -> int:
        return self.coords.shape[1]

    def __repr__(self) -> str:
        return f"PointTable(PG({self.k - 1},{self.spec.q}), {len(self)} points)"

    @property
    def points(self) -> tuple[tuple[int, ...], ...]:
        """Every point as a tuple, built from `coords` on each read: for
        the CLI and tests, not for any library path."""
        return tuple(map(tuple, self.coords.T.tolist()))

    def index_of(self, point) -> int:
        """1-based table index of a normalized point."""
        return self.position_of(point) + 1

    def position_of(self, point) -> int:
        """0-based position, for internal array indexing.  Raises
        ValueError unless `point` has k entries in range(q) whose first
        nonzero one is 1."""
        coords = as_ints(point)
        if (len(coords) != self.k
                or not all(0 <= x < self.spec.q for x in coords)
                or next(filter(None, coords), 0) != 1):
            raise ValueError(f"{tuple(coords)} is not a normalized point")
        return _ranks([coords], self.k, self.spec.q)[0]


_TABLE_CACHE: dict[tuple[int, int, int], PointTable] = {}
_INCIDENCE_CACHE: dict[tuple[int, int, int], ColoredBinaryMatrix] = {}


@cache
def _rank_offsets(k: int, q: int) -> tuple[int, ...]:
    """Per coordinate lead, theta(t-1, q) - q^t with t = k-1-lead: what
    turns the base-q value of a point with its leading 1 at `lead` into its
    position (`_ranks`)."""
    return tuple(theta(k - 2 - lead, q) - q ** (k - 1 - lead)
                 for lead in range(k))


def _ranks(points, k: int, q: int) -> list[int]:
    """The table positions of normalized `points` of length k: the
    theta(t-1, q) = (q^t - 1)/(q - 1) points with fewer than t coordinates
    after their leading 1 come first, then the q^t points with t, in the
    base-q order of those t coordinates (the tail).  A point read in base q
    is q^t plus its tail's value."""
    offsets, ranks = _rank_offsets(k, q), []
    for point in points:
        value = 0
        for x in point:
            value = value * q + x
        ranks.append(value + offsets[point.index(1)])
    return ranks


def _tail_digits(ranks, t: int, q: int):
    """The t base-q digits of `ranks`, an int or an int array (consumed in
    place), the last first: the coordinates after the leading 1 of the
    points whose tails have those base-q ranks, read from the end."""
    for _ in range(t):
        yield ranks % q
        ranks //= q


def point_table(k: int, q: int, modulus: int | None = None) -> PointTable:
    spec = field(q, modulus)
    key = (k, q, spec.modulus)
    cached = _TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    if k < 1:
        raise ValueError(f"dimension k must be >= 1, got {k}")
    count = theta(k - 1, q)
    if count > MAX_POINTS:
        raise ResourceLimitError(
            f"PG({k - 1},{q}) has {count} points, over the {MAX_POINTS} limit")
    # lexicographic order: the later the leading 1, the earlier the point;
    # the q^t points with t coordinates after it start at theta(t-1, q)
    coords = np.zeros((k, count), np.uint8 if q <= 256 else np.uint16)
    for t in range(k):
        block = coords[:, theta(t - 1, q):theta(t, q)]
        block[k - 1 - t] = 1
        ranks = np.arange(q ** t, dtype=_uint_for(count))
        for c, digits in enumerate(_tail_digits(ranks, t, q)):
            block[k - 1 - c] = digits
    coords.flags.writeable = False
    table = PointTable(spec, k, coords)
    _TABLE_CACHE[key] = table
    return table


def point_at(k: int, q: int, position: int) -> tuple[int, ...]:
    """The point at 0-based `position` of point_table(k, q), without
    building the table: the point whose t-coordinate tail has base-q rank
    position - theta(t-1, q), for the t whose block holds `position`."""
    t = 0
    while theta(t, q) <= position:
        t += 1
    digits = list(_tail_digits(position - theta(t - 1, q), t, q))
    return (0,) * (k - 1 - t) + (1,) + tuple(reversed(digits))


def simplex_generator(k: int, q: int, modulus: int | None = None) -> GFMatrix:
    """k x theta(k-1,q) matrix whose columns are all points, in table order."""
    table = point_table(k, q, modulus)
    return GFMatrix._wrap(table.spec, table.coords.tolist())


# Cells (points x vectors) of one accumulator block of the mask kernel:
# 2^18 one-byte cells stay in cache, and ran GF(2) tables about 25%
# faster than 2^21 on a 2-vCPU x86 VM.
_BLOCK_CELLS = 1 << 18


def _uint_for(top: int):
    """The narrowest unsigned dtype holding 0..top."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return dtype
    return np.uint64


@cache
def _dot_kernel(spec: FieldSpec, k: int):
    """The inner-product kernel of one field, as ``(code, product, add,
    nonzero)``.  `code` maps field elements to the kernel's coordinate
    codes; ``product(a, b)`` holds the products of coordinate codes `a` (a
    column) and `b` (a row); ``add(acc, x, out=acc)`` sums them exactly; and
    ``nonzero(acc)`` is nonzero exactly where the field sum is.

    A product is held as its m base-p digits, each in a field of `width`
    bits, wide enough for the exact sum of k digits, so a sum is reduced
    once, digit by digit, at the end.  Prime fields multiply exactly: one
    digit, of up to (p-1)^2.  Composite fields gather the digits of a
    product from a table indexed by log sums.  Every table has O(q)
    entries."""
    q, p, m, n = spec.q, spec.p, spec.m, spec.q - 1
    if p == 2:
        # XOR adds each bit mod 2 and never carries: a digit needs one bit,
        # and a sum no reduction
        width, add, nonzero = 1, np.bitwise_xor, lambda acc: acc
    else:
        width = (k * ((p - 1) ** 2 if m == 1 else p - 1)).bit_length()
        add, mask = np.add, (1 << width) - 1

        def nonzero(acc):
            # zero exactly where every digit's sum is 0 mod p, that is,
            # equals p times its quotient: NumPy divides by a scalar several
            # times faster than it takes a remainder.  Every digit is
            # reduced into the same buffers
            digit, quot = np.empty_like(acc), np.empty_like(acc)
            differs = np.empty(acc.shape, dtype=bool)
            out = np.zeros(acc.shape, dtype=bool)
            for d in range(m):
                np.right_shift(acc, width * d, out=digit)
                np.bitwise_and(digit, mask, out=digit)
                np.floor_divide(digit, p, out=quot)
                np.multiply(quot, p, out=quot)
                np.not_equal(quot, digit, out=differs)
                out |= differs
            return out
    dtype = _uint_for((1 << m * width) - 1)
    if m == 1:
        return (np.arange(q, dtype=dtype),
                np.bitwise_and if p == 2 else np.multiply, add, nonzero)
    # the field's log and product tables (`FieldSpec.log`, `FieldSpec.exp`):
    # zero's log is the sentinel 2n, and a sum of two logs indexes the
    # product, 0 when either factor is zero
    exp = np.array(spec.exp)
    prod = sum((exp // p ** d % p) << (width * d)
               for d in range(m)).astype(dtype)
    return (np.array(spec.log, dtype=_uint_for(4 * n)),
            lambda a, b: prod[a + b], add, nonzero)


def _nonzero_dot_blocks(table: PointTable, vectors: np.ndarray):
    """Yields, for consecutive blocks of the points u of `table`, an array
    of points x vectors that is nonzero exactly where u . v != 0, for the
    columns v of the k x m integer array `vectors`; over GF(2^m), m > 1, it
    holds the sums' packed digits, not 0/1.

    One NumPy kernel serves every field: points are taken in blocks sized
    so the points x vectors accumulator has about _BLOCK_CELLS cells, and
    the products of u . v are summed exactly one coordinate at a time and
    reduced once (see _dot_kernel)."""
    code, product, add, nonzero = _dot_kernel(table.spec, table.k)
    # one contiguous row per coordinate, for points and vectors alike
    pts = code[table.coords]
    vecs = np.ascontiguousarray(code[vectors])
    n_vecs = vecs.shape[1]
    rows = max(1, _BLOCK_CELLS // n_vecs)
    for lo in range(0, pts.shape[1], rows):
        block = pts[:, lo:lo + rows, None]
        acc = product(block[0], vecs[0])
        for c in range(1, table.k):
            add(acc, product(block[c], vecs[c]), out=acc)
        yield nonzero(acc)


def nonzero_dot_bits(table: PointTable, vectors) -> np.ndarray:
    """A len(table) x len(vectors) uint8 array of 0/1: entry (i, j) is 1
    iff point i of `table` has u . vectors[j] != 0.  `vectors` is a
    sequence of length-k vectors or an m x k integer array."""
    if len(vectors) == 0:
        return np.zeros((len(table), 0), np.uint8)
    return np.concatenate(
        list(_nonzero_dot_blocks(table, np.asarray(vectors).T)),
        dtype=bool, casting="unsafe").view(np.uint8)


def codeword_weights(bits: np.ndarray, colors) -> list[int]:
    """Each row's sum of `bits`, column j counted colors[j] times.  For
    nonzero_dot_bits(table, points), colored by the points' multiplicities
    in a code, this is the weight of the codeword u . G of each point u of
    `table`: it is nonzero exactly at the coordinates whose point lies off
    hyperplane u."""
    # einsum casts the bits in chunks, where @ would copy them as int64
    return np.einsum("ij,j->i", bits,
                     np.array(colors, dtype=np.int64)).tolist()


def incidence(k: int, q: int,
              modulus: int | None = None) -> ColoredBinaryMatrix:
    """The binary support of the simplex Gram matrix, every column colored
    0: entry (i, j) is 1 iff point j is *not* on hyperplane i (their inner
    product is nonzero), both 0-based positions into the point table.

    The kernel's blocks are packed one by one into the matrix's
    preallocated byte records (`ColoredBinaryMatrix.packed`), with no
    theta x theta array.  The matrix is cached, and is symmetric: its
    `bits`, unpacked on first use (a first search, `build_ceimpg_matrix`,
    or a first column gather, `incidence_columns`), stay with it and serve
    as their own transpose."""
    table = point_table(k, q, modulus)
    n = len(table)
    if n * n > MAX_INCIDENCE_CELLS:
        raise ResourceLimitError(
            f"the incidence matrix of PG({k - 1},{q}) has {n * n} cells, "
            f"over the {MAX_INCIDENCE_CELLS} limit")
    key = (k, q, table.spec.modulus)
    cached = _INCIDENCE_CACHE.get(key)
    if cached is not None:
        return cached
    packed = np.empty((n, -(-n // 8)), np.uint8)
    lo = 0
    for block in _nonzero_dot_blocks(table, table.coords):
        # any nonzero entry packs as a set bit
        packed[lo:lo + len(block)] = np.packbits(block, axis=1)
        lo += len(block)
    result = ColoredBinaryMatrix._of(packed, n, symmetric=True)
    _INCIDENCE_CACHE[key] = result
    return result


def incidence_columns(table: PointTable, positions) -> np.ndarray:
    """nonzero_dot_bits(table, table.coords[:, positions].T): the
    columns at the 0-based `positions` of the incidence of `table`'s
    geometry.  When that whole incidence fits in one kernel block and under
    the incidence bound, theta^2 <= min(_BLOCK_CELLS, MAX_INCIDENCE_CELLS)
    (theta <= 512 by default), they are one column gather from the cached
    `incidence()`'s bits, built once per geometry; a larger geometry runs
    the kernel on those points alone, so the bound raises nothing here."""
    n = len(table)
    if n * n > min(_BLOCK_CELLS, MAX_INCIDENCE_CELLS):
        return nonzero_dot_bits(table, table.coords[:, positions].T)
    spec = table.spec
    return incidence(table.k, spec.q, spec.modulus).bits.take(positions, 1)
