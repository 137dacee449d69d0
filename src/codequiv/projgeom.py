"""Projective geometry PG(k-1, q): point tables, simplex codes, incidence.

Points are the normalized nonzero vectors of GF(q)^k (first nonzero
coordinate 1), listed in lexicographic coordinate order; the table index of a
point is 1-based in every public interface.  Hyperplanes are indexed by the
same table: hyperplane u is {x : u . x = 0}, and the incidence matrix records
the complement (the nonzero inner products), which is what the equivalence
algorithms consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property
from itertools import product

import numpy as np

from .errors import ResourceLimitError
from .gfield import FieldSpec, field
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


@dataclass(frozen=True)
class PointTable:
    """All points of PG(k-1, q) in lexicographic order, with reverse lookup."""
    spec: FieldSpec
    k: int
    points: tuple[tuple[int, ...], ...]
    _index: dict = dc_field(repr=False, hash=False, compare=False, default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    def index_of(self, point) -> int:
        """1-based table index of a normalized point."""
        try:
            return self._index[tuple(point)] + 1
        except KeyError:
            raise ValueError(f"{tuple(point)} is not a normalized point") from None

    def position_of(self, point) -> int:
        """0-based position, for internal array indexing."""
        return self.index_of(point) - 1

    @cached_property
    def coords(self) -> np.ndarray:
        """The points as a contiguous k x len(self) array: row i holds every
        point's coordinate i."""
        dtype = np.uint8 if self.spec.q <= 256 else np.uint16
        return np.ascontiguousarray(np.array(self.points, dtype=dtype).T)


_TABLE_CACHE: dict[tuple[int, int, int], PointTable] = {}
_INCIDENCE_CACHE: dict[tuple[int, int, int], "IncidenceMatrix"] = {}


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
    # lexicographic order: the later the leading 1, the earlier the point
    pts = [(0,) * lead + (1,) + tail
           for lead in range(k - 1, -1, -1)
           for tail in product(range(q), repeat=k - 1 - lead)]
    table = PointTable(spec, k, tuple(pts), {p: i for i, p in enumerate(pts)})
    _TABLE_CACHE[key] = table
    return table


def simplex_generator(k: int, q: int, modulus: int | None = None) -> GFMatrix:
    """k x theta(k-1,q) matrix whose columns are all points, in table order."""
    table = point_table(k, q, modulus)
    return GFMatrix.from_columns(table.spec, [list(p) for p in table.points])


@dataclass(frozen=True)
class IncidenceMatrix:
    """Binary support of the simplex Gram matrix.

    ``entry(i, j) = 1`` iff point j is *not* on hyperplane i (their inner
    product is nonzero); both indices are 0-based positions into the point
    table.  Row masks follow the bit convention of the canonicalization
    module: bit (theta-1-j) holds column j.
    """
    k: int
    q: int
    n_points: int
    row_masks: tuple[int, ...]

    def entry(self, i: int, j: int) -> int:
        return (self.row_masks[i] >> (self.n_points - 1 - j)) & 1

    def row_weight(self, i: int) -> int:
        return self.row_masks[i].bit_count()


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Pack a 2-D array into per-row column masks (module bit order); any
    nonzero entry is a set bit."""
    n_rows, n_cols = bits.shape
    packed = np.packbits(bits, axis=1, bitorder="big")
    pad = 8 * packed.shape[1] - n_cols
    return [int.from_bytes(packed[i].tobytes(), "big") >> pad
            for i in range(n_rows)]


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
    """The inner-product kernel of one field, as ``(code, zero, step,
    nonzero)``.  `code` maps field elements to the kernel's working codes;
    an accumulator starts filled with `zero`, a NumPy scalar of the
    accumulator's dtype (picked by q, and by k too for the exact sums of
    odd primes); ``step(acc, a, b)`` returns acc + a*b for coordinate codes
    `a` (a column) and `b` (a row); and ``nonzero(acc)`` is nonzero exactly
    where the sum is.  Every table has O(q) entries."""
    q, p, n = spec.q, spec.p, spec.q - 1
    if q == 2:
        def step(acc, a, b):
            acc ^= a & b
            return acc
        return np.arange(2, dtype=np.uint8), np.uint8(0), step, lambda acc: acc
    if spec.m == 1:
        # small products summed exactly, reduced mod p once at the end
        dtype = _uint_for(k * (p - 1) ** 2)

        def step(acc, a, b):
            acc += a * b
            return acc
        return np.arange(q, dtype=dtype), dtype(0), step, lambda acc: acc % p
    # composite fields work with discrete logs: 0 <= log < n, and zero is the
    # sentinel 2n, so a sum of two logs is a product's log (mod n) when both
    # are below n and is at least 2n when either factor is zero
    zero = 2 * n
    logs = np.array(spec.log, dtype=np.int64)
    logs[0] = zero
    wrap = np.arange(4 * n + 1) % n
    if p == 2:
        # characteristic 2 adds by XOR: the accumulator holds elements, and
        # a product is exp of the log sum, or 0
        elem = np.uint8 if q <= 256 else np.uint16
        prod = np.array(spec.exp, dtype=elem)[wrap]
        prod[2 * n - 1:] = 0

        def step(acc, a, b):
            acc ^= prod[a + b]
            return acc
        return logs.astype(_uint_for(4 * n)), elem(0), step, lambda acc: acc
    # odd p^m: the accumulator holds logs and adds through the Zech logs,
    # acc + x = acc * (1 + x/acc); shift[x - acc + 2n] is what to add to acc:
    # the Zech log of x - acc when both are nonzero, 2n when that sum
    # vanishes, x - acc when acc is zero and 0 when x is; fold[] then
    # reduces the result mod n, or to the zero sentinel from 2n up
    dtype = np.int16 if 4 * n < 1 << 15 else np.int32
    prod = wrap.astype(dtype)
    prod[2 * n - 1:] = zero
    zech = np.array(spec.zech, dtype=dtype)
    diff = np.arange(-2 * n, 2 * n + 1, dtype=dtype)
    shift = np.where(diff < -n, diff, 0).astype(dtype)
    middle = np.abs(diff) < n
    shift[middle] = np.where(zech[diff[middle] % n] < 0, zero,
                             zech[diff[middle] % n])
    fold = np.arange(3 * n, dtype=dtype) % n
    fold[2 * n:] = zero

    def step(acc, a, b):
        x = prod[a + b]
        return fold[acc + shift[x + (2 * n - acc)]]
    return logs.astype(dtype), dtype(zero), step, lambda acc: acc != zero


def nonzero_dot_masks(table: PointTable, vectors) -> list[int]:
    """One mask per point u of `table`: bit (len(vectors)-1-j) is set iff
    u . vectors[j] != 0 (the canonicalization module's bit order).

    One NumPy kernel serves every field: points are taken in blocks sized
    so the points x vectors accumulator has about _BLOCK_CELLS cells, and
    u . v is accumulated one coordinate at a time, with the field's addition
    (see _dot_kernel)."""
    if not vectors:
        return [0] * len(table)
    code, zero, step, nonzero = _dot_kernel(table.spec, table.k)
    # one contiguous row per coordinate, for points and vectors alike
    pts = code[table.coords]
    vecs = np.ascontiguousarray(code[np.array(vectors, dtype=np.intp)].T)
    n_vecs = vecs.shape[1]
    rows = max(1, _BLOCK_CELLS // n_vecs)
    masks = []
    for lo in range(0, pts.shape[1], rows):
        block = pts[:, lo:lo + rows, None]
        acc = np.full((block.shape[1], n_vecs), zero, dtype=zero.dtype)
        for c in range(table.k):
            acc = step(acc, block[c], vecs[c])
        masks += _pack_rows(nonzero(acc))
    return masks


def incidence(k: int, q: int, modulus: int | None = None) -> IncidenceMatrix:
    table = point_table(k, q, modulus)
    cells = len(table) ** 2
    if cells > MAX_INCIDENCE_CELLS:
        raise ResourceLimitError(
            f"the incidence matrix of PG({k - 1},{q}) has {cells} cells, "
            f"over the {MAX_INCIDENCE_CELLS} limit")
    key = (k, q, table.spec.modulus)
    cached = _INCIDENCE_CACHE.get(key)
    if cached is not None:
        return cached
    masks = nonzero_dot_masks(table, table.points)
    result = IncidenceMatrix(k, q, len(table), tuple(masks))
    _INCIDENCE_CACHE[key] = result
    return result
