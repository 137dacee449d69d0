"""Linear [n, k] codes over GF(q) as full-rank generator matrices.

Columns are normalized projectively on construction (first nonzero
coordinate scaled to 1); the original column scalings are deliberately not
retained, since every question asked here (equivalence, automorphisms,
distance via point multiplicities) is insensitive to them.  Construction
reads the columns once: each is scaled by one table `scale` unless its
lead is 1 already, and rank k is checked by inserting the columns into an
echelon basis of GF(q)^k that stops at its k-th pivot, not by eliminating
the k x n rows.  The public constructor range-checks its rows first
(`GFMatrix`); `codefile.parse_codes`, which has checked them, skips that.

A code's point multiset is found in one place: `_locate` walks its
normalized columns once, groups them by point, and ranks each distinct
point from its coordinates (`projgeom._ranks`: arithmetic, no lookup
table), giving the coordinates of the code it occupies and its point-table
position.  `characteristic_vector` counts from it, as do the shortened and
incidence matrices of `equiv`.  A `CharacteristicVector` checks its counts
on construction, so `min_distance_hyperplane` and `code_from_chi` read only
multiplicity vectors, and the point table's `coords` array.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .gfield import FieldSpec, as_ints, field
from .gfmatrix import GFMatrix
from .projgeom import (_ranks, codeword_weights, nonzero_dot_bits, point_at,
                       point_table, theta)


class GeneratorMatrix:
    """A k x n generator matrix of full rank k with no zero column."""

    __slots__ = ("spec", "mat", "k", "n")

    def __init__(self, spec_or_q, rows, modulus: int | None = None):
        spec = spec_or_q if isinstance(spec_or_q, FieldSpec) else field(spec_or_q, modulus)
        self._fill(spec, GFMatrix(spec, rows).rows)  # range-checks the rows

    @classmethod
    def _checked(cls, spec: FieldSpec, rows) -> "GeneratorMatrix":
        """The code of `rows` that the caller has checked already: rows of
        one length, entries ints in range(q).  For `codefile.parse_codes`
        and the duals `equiv._side` builds."""
        self = cls.__new__(cls)
        self._fill(spec, rows)
        return self

    def _fill(self, spec: FieldSpec, rows) -> None:
        """Normalize the columns of checked `rows` in one pass, each with
        one `FieldSpec.scale` and none when its lead is 1 already, and check
        rank k by inserting them into an echelon basis that stops at its
        k-th pivot, rather than by eliminating the k x n rows.  Raises
        ValueError on an empty matrix, then on the first zero column, then
        on a rank below k."""
        k = len(rows)
        if k == 0 or not rows[0]:
            raise ValueError("generator matrix must be non-empty")
        invs, negs, scale, add_scaled = (spec.invs, spec.negs, spec.scale,
                                         spec.add_scaled)
        # basis[i]: a vector of the span of the columns so far whose first
        # nonzero coordinate is a 1 at i
        basis: dict[int, list[int]] = {}
        cols = []
        for j, col in enumerate(zip(*rows)):
            lead = next(filter(None, col), 0)
            if not lead:
                raise ValueError(f"column {j + 1} is zero")
            if lead != 1:
                col = scale(invs[lead], col)
            cols.append(col)
            v = col
            while len(basis) < k:
                x = next(filter(None, v), 0)
                if not x:  # v is in the span
                    break
                i = v.index(x)
                b = basis.get(i)
                if b is None:
                    basis[i] = v if x == 1 else scale(invs[x], v)
                    break
                # zero at i now, as at every coordinate before it
                v = add_scaled(v, negs[x], b)
        self.spec = spec
        self.mat = GFMatrix._wrap(spec, [list(row) for row in zip(*cols)])
        self.k = k
        self.n = len(cols)
        if len(basis) < k:
            raise ValueError(f"rank is below k={k}")

    @classmethod
    def from_columns(cls, spec: FieldSpec, cols) -> "GeneratorMatrix":
        return cls(spec, zip(*cols, strict=True))

    @property
    def q(self) -> int:
        return self.spec.q

    def columns(self) -> list[tuple[int, ...]]:
        return self.mat.columns()

    def __eq__(self, other) -> bool:
        return (isinstance(other, GeneratorMatrix)
                and self.spec == other.spec and self.mat == other.mat)

    def __repr__(self) -> str:
        return f"GeneratorMatrix(q={self.q}, k={self.k}, n={self.n})"


@dataclass(frozen=True)
class CharacteristicVector:
    """Column multiplicities of a code over the point table of PG(k-1, q):
    theta(k-1, q) non-negative ints, checked on construction (ValueError)."""
    spec: FieldSpec
    k: int
    counts: tuple[int, ...]

    def __post_init__(self):
        count = theta(self.k - 1, self.spec.q)
        if len(self.counts) != count:
            raise ValueError(
                f"expected {count} multiplicities, got {len(self.counts)}")
        counts = tuple(as_ints(self.counts))  # refuses 1.5, and 1.0 too
        if min(counts, default=0) < 0:
            raise ValueError("multiplicities must be non-negative integers")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def is_projective(self) -> bool:
        return all(c <= 1 for c in self.counts)


def _locate(code: GeneratorMatrix) -> tuple[list[tuple[int, ...]], list[int]]:
    """Each distinct point (normalized column) of `code`, in order of first
    appearance: its coordinates in index order, and its 0-based position in
    the point table of PG(k-1, q), ranked from the column's entries
    (`projgeom._ranks`), from one walk over the columns."""
    point_table(code.k, code.q, code.spec.modulus)  # refuses one too large
    by_point: dict = {}
    for j, col in enumerate(zip(*code.mat.rows)):
        by_point.setdefault(col, []).append(j)
    return ([tuple(coords) for coords in by_point.values()],
            _ranks(by_point, code.k, code.q))


def characteristic_vector(code: GeneratorMatrix) -> CharacteristicVector:
    counts = [0] * theta(code.k - 1, code.q)
    for coords, pos in zip(*_locate(code)):
        counts[pos] = len(coords)
    return CharacteristicVector(code.spec, code.k, tuple(counts))


def code_from_chi(spec_or_q, k: int, counts, modulus: int | None = None) -> GeneratorMatrix:
    """Build the code whose columns are table points repeated per `counts`.

    Columns appear in ascending point-index order.  Raises ValueError when
    the support does not span (rank below k) or counts are invalid
    (`CharacteristicVector`).
    """
    spec = spec_or_q if isinstance(spec_or_q, FieldSpec) else field(spec_or_q, modulus)
    table = point_table(k, spec.q, spec.modulus)
    chi = CharacteristicVector(spec, k, tuple(counts))
    if not chi.n:
        raise ValueError("empty support")
    return GeneratorMatrix._checked(
        spec, table.coords.repeat(chi.counts, axis=1).tolist())


def min_distance_hyperplane(chi: CharacteristicVector) -> int:
    """Minimum weight via hyperplanes: the least codeword weight
    (`codeword_weights`) over the incidence columns of chi's support
    points (`nonzero_dot_bits`).

    Codeword u . G is nonzero exactly at the coordinates whose points lie
    off hyperplane u, so d = min_u sum(chi[j] for j off hyperplane u).
    Returns 0 only for degenerate (non-spanning) multiplicity vectors.
    """
    table = point_table(chi.k, chi.spec.q, chi.spec.modulus)
    support = [j for j, c in enumerate(chi.counts) if c]
    bits = nonzero_dot_bits(table, table.coords[:, support].T)
    return min(codeword_weights(bits, [chi.counts[j] for j in support]))


def random_code(spec_or_q, n: int, k: int, seed: int,
                projective: bool = False, modulus: int | None = None) -> GeneratorMatrix:
    """Sample a full-rank [n, k] code; deterministic in all arguments.

    Columns are points drawn uniformly (without replacement when projective)
    as positions in the point table of PG(k-1, q), each computed on its own
    (`point_at`), so no table is built; draws that do not reach rank k are
    rejected and retried.
    """
    spec = spec_or_q if isinstance(spec_or_q, FieldSpec) else field(spec_or_q, modulus)
    if n < k:
        raise ValueError(f"n={n} cannot support rank k={k}")
    count = theta(k - 1, spec.q)
    if projective and n > count:
        raise ValueError(f"projective code needs n <= {count} points, got n={n}")
    rng = random.Random(seed)
    for _ in range(1000):
        if projective:
            chosen: list[int] = []
            seen = set()
            while len(chosen) < n:
                r = rng.randrange(count)
                if r not in seen:
                    seen.add(r)
                    chosen.append(r)
        else:
            chosen = [rng.randrange(count) for _ in range(n)]
        cols = [point_at(k, spec.q, j) for j in chosen]
        try:
            return GeneratorMatrix.from_columns(spec, cols)
        except ValueError:
            continue
    raise ValueError(
        f"could not sample a rank-{k} code with n={n} over GF({spec.q})")
