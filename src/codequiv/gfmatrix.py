"""Dense matrices over GF(q): elimination, ranks, inverses and nullspaces.

Matrices are small (dozens of rows/columns) and hold plain-int entries.
Their per-entry loops read the field's tables: each row operation is one
`FieldSpec.scale` or `FieldSpec.add_scaled` call on whole rows, with no
scalar method call per entry.  Over a prime field `mat_mul` is one
exact int64 NumPy product reduced mod p; no linear-algebra package
understands the table-backed extension fields, whose products stay row
operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gfield import FieldSpec, as_ints


class GFMatrix:
    """A rows × cols matrix over GF(q); entries are ints in range(q)."""

    __slots__ = ("spec", "rows")

    def __init__(self, spec: FieldSpec, rows):
        self.spec = spec
        self.rows = [as_ints(r) for r in rows]
        q = spec.q
        width = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            if r and not (0 <= min(r) and max(r) < q):
                e = next(e for e in r if not 0 <= e < q)
                raise ValueError(f"entry {e} out of range for GF({q})")

    @classmethod
    def _wrap(cls, spec: FieldSpec, rows: list[list[int]]) -> "GFMatrix":
        """A matrix that takes `rows` as they are: lists of equal length,
        entries in range(q), owned by the matrix from now on.  For results
        of field arithmetic, which need no range check."""
        self = cls.__new__(cls)
        self.spec = spec
        self.rows = rows
        return self

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "GFMatrix":
        return cls(spec, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, spec: FieldSpec, cols) -> "GFMatrix":
        return cls(spec, zip(*cols, strict=True))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.rows))

    def transpose(self) -> "GFMatrix":
        return GFMatrix(self.spec, self.columns())

    def __eq__(self, other) -> bool:
        return (isinstance(other, GFMatrix) and self.spec == other.spec
                and self.rows == other.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in r) for r in self.rows)
        return f"GFMatrix({self.spec!r}, [{body}])"


def mat_mul(a: GFMatrix, b: GFMatrix) -> GFMatrix:
    """The product a @ b.  Over a prime field it is one int64 NumPy product
    reduced mod p, exact while a.ncols * (p-1)**2 < 2**63; over a composite
    field each row of the product sums the rows of `b` scaled by that row
    of `a` (`FieldSpec.add_scaled`)."""
    if a.spec != b.spec:
        raise ValueError("field mismatch")
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch: {a.nrows}x{a.ncols} @ {b.nrows}x{b.ncols}")
    spec = a.spec
    if spec.m == 1:
        x = np.array(a.rows, dtype=np.int64).reshape(a.nrows, a.ncols)
        y = np.array(b.rows, dtype=np.int64).reshape(b.nrows, b.ncols)
        return GFMatrix._wrap(spec, ((x @ y) % spec.p).tolist())
    out = []
    for row in a.rows:
        acc = [0] * b.ncols
        for f, b_row in zip(row, b.rows):
            if f:
                acc = spec.add_scaled(acc, f, b_row)
        out.append(acc)
    return GFMatrix._wrap(spec, out)


@dataclass
class RREFResult:
    """Reduced row echelon form R with the transform that produced it.

    Invariant: ``transform @ original = rref`` and `transform` is invertible.
    """
    rref: GFMatrix
    rank: int
    pivots: tuple[int, ...]
    transform: GFMatrix


def _eliminate(spec: FieldSpec, rows: list[list[int]], cols) -> list[int]:
    """Gauss-Jordan on `rows` in place, trying the candidate pivot columns
    `cols` in order; returns the pivot columns."""
    invs, negs = spec.invs, spec.negs
    n = len(rows)
    pivots = []
    r = 0
    for c in cols:
        if r == n:
            break
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        if lead != 1:
            rows[r] = spec.scale(invs[lead], rows[r])
        pivot_row = rows[r]
        for i in range(n):
            if i != r and rows[i][c]:
                rows[i] = spec.add_scaled(rows[i], negs[rows[i][c]],
                                          pivot_row)
        pivots.append(c)
        r += 1
    return pivots


def rref(a: GFMatrix) -> RREFResult:
    n, m = a.nrows, a.ncols
    rows = [list(row) + [1 if i == j else 0 for j in range(n)]
            for i, row in enumerate(a.rows)]
    pivots = _eliminate(a.spec, rows, range(m))
    return RREFResult(GFMatrix._wrap(a.spec, [row[:m] for row in rows]),
                      len(pivots), tuple(pivots),
                      GFMatrix._wrap(a.spec, [row[m:] for row in rows]))


def rank(a: GFMatrix) -> int:
    return len(_eliminate(a.spec, [list(row) for row in a.rows], range(a.ncols)))


def inverse(a: GFMatrix) -> GFMatrix:
    if a.nrows != a.ncols:
        raise ValueError("inverse of a non-square matrix")
    res = rref(a)
    if res.rank != a.nrows:
        raise ValueError("matrix is singular")
    return res.transform


def nullspace_basis(a: GFMatrix) -> list[tuple[int, ...]]:
    """Basis of the right nullspace {x : A x = 0}, one vector per free column."""
    rows = [list(row) for row in a.rows]
    pivots = _eliminate(a.spec, rows, range(a.ncols))
    negs = a.spec.negs
    pivot_set = set(pivots)
    basis = []
    for f in range(a.ncols):
        if f in pivot_set:
            continue
        vec = [0] * a.ncols
        vec[f] = 1
        for t, pc in enumerate(pivots):
            vec[pc] = negs[rows[t][f]]
        basis.append(tuple(vec))
    return basis

