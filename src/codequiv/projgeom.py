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

import numpy as np

from .errors import ResourceLimitError
from .gfield import FieldSpec, field
from .gfmatrix import GFMatrix

MAX_POINTS = 2_000_000


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
    pts = []
    for lead in range(k):
        for counter in range(q ** (k - 1 - lead)):
            v = [0] * k
            v[lead] = 1
            c = counter
            for pos in range(k - 1, lead, -1):
                v[pos] = c % q
                c //= q
            pts.append(tuple(v))
    pts.sort()
    assert len(pts) == count
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


def _pack_bool_rows(bits: np.ndarray) -> list[int]:
    """Pack a 2-D bool array into per-row column masks (module bit order)."""
    n_rows, n_cols = bits.shape
    packed = np.packbits(bits, axis=1, bitorder="big")
    pad = 8 * packed.shape[1] - n_cols
    return [int.from_bytes(packed[i].tobytes(), "big") >> pad
            for i in range(n_rows)]


def nonzero_dot_masks(table: PointTable, vectors) -> list[int]:
    """One mask per point u of `table`: bit (len(vectors)-1-j) is set iff
    u . vectors[j] != 0 (the canonicalization module's bit order).  Prime
    fields take the products in blocks of 512 points, so a full incidence
    table never holds more than 512 rows of int64 products at once."""
    spec = table.spec
    if spec.m == 1:
        pts = np.array(table.points, dtype=np.int64)
        vecs = np.array(vectors, dtype=np.int64).T
        masks = []
        for lo in range(0, len(pts), 512):
            masks += _pack_bool_rows((pts[lo:lo + 512] @ vecs) % spec.q != 0)
        return masks
    dot = spec.dot
    masks = []
    for u in table.points:
        m = 0
        for v in vectors:
            m = (m << 1) | (1 if dot(u, v) else 0)
        masks.append(m)
    return masks


def incidence(k: int, q: int, modulus: int | None = None) -> IncidenceMatrix:
    table = point_table(k, q, modulus)
    key = (k, q, table.spec.modulus)
    cached = _INCIDENCE_CACHE.get(key)
    if cached is not None:
        return cached
    masks = nonzero_dot_masks(table, table.points)
    result = IncidenceMatrix(k, q, len(table), tuple(masks))
    _INCIDENCE_CACHE[key] = result
    return result
