"""Equivalence decisions and automorphism groups for linear codes.

Two [n, k]_q codes are equivalent when some invertible Q, coordinate
permutation sigma, nonzero column scalings lambda, and field automorphism
rho = (a -> a^(p^rho)) satisfy the frozen orientation

    Q @ G2  ==  rho(G1 @ P_sigma @ diag(lambda))        (entrywise rho)

where P_sigma places old coordinate i at position sigma[i], so column s of
G1 @ P_sigma is column sigma^{-1}(s) of G1, and lambda[s] scales position s.
Permutations are 0-based arrays (sigma[i] = image of i) everywhere in the
library; the CLI prints them 1-based.

Two decision routes are provided:

* the point-multiplicity route: color the columns of the full
  point/hyperplane incidence structure by the code's point multiplicities,
  search for one isomorphism of the two, and lift it, moved onto the
  points, to an explicit monomial witness (`ceimpg_equiv`);
* the shortened route: compare the weight profiles of the codes' sides
  first (`_Side.profile`: weight distribution and point multiplicities),
  then search for one isomorphism sigma0 between the hyperplane-by-point
  support matrices of their distinct points, colored
  by multiplicity (`bmcanon.is_isomorphic`: the first leaf of one search
  tree, looked for in the other; no canonical form), then lift candidate
  coordinate permutations to an explicit monomial witness
  (`lift._find_lift`).  The side's distinct points and their point-table
  positions come from one walk over its columns (`lincode._locate`).  The
  support matrix is the incidence restricted to the columns at those
  positions, sliced out of the cached incidence when the geometry is small
  enough (`build_shortened`).  The weight distribution is read off those
  columns (`_Side.weights`, `projgeom.codeword_weights`: a row's weight,
  each column counted by its multiplicity, is the weight of that
  hyperplane's codeword), before any matrix object is built or row
  packed; monomial maps and field automorphisms keep the profile, so
  differing profiles prove inequivalence with no search at all, in a pair
  and, on both routes, in a `batch.classify` batch.  The
  point-multiplicity pair decision (`ceimpg_equiv`) takes no such
  shortcut: it stays an independent check of every inequivalent verdict
  its search reaches.

Both binary matrices have theta(k) = (q^k - 1)/(q - 1) rows or columns, so
for a high-rate code (2k > n) they are built from its dual instead, which
has dimension n - k (`_side` names the exception).  C1 ~ C2 exactly when
C1^perp ~ C2^perp under the same coordinate permutation and field
automorphism, so the dual's canonical forms yield the same candidate
permutations and the same permutation group.  Lifting, witnesses and the
diagonal kernel always stay on the codes themselves and their own lift
targets (`lift.LiftTarget`: a reduced row echelon form and its support
graph).

Over GF(2) the shortened matrix of a side whose minimum-weight words span it
is cut to the rows of those words (`_Side.rows`): a row is the support
of its codeword, and a codeword is its support, so these rows have the same
automorphism group and the same isomorphisms as all theta(k) rows.  Every
monomial map keeps the gate (whether those words span), so equivalent codes
take the same branch.  Over q > 2 a support is no codeword, so every other
field keeps all rows, as does the point-multiplicity route.

All that the shortened route derives from a code is built once, on first
use, in the code's one `_Side` record: `cesimpg_equiv`, `code_aut_group`
and the keys of `batch.classify` read it, and `lift._find_lift` takes two.
A pair decision canonicalizes a side only when sigma0 does not lift, and
builds a lift target only for its second code.  This route builds no
canonical form of an incidence matrix: past the coset cap each comparison
searches the two incidence matrices anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bmcanon
from .bmcanon import (CanonResult, ColoredBinaryMatrix, _perm_inverse,
                      canonical_form)
from .gfield import FieldSpec, as_ints
from .gfmatrix import GFMatrix, mat_mul, nullspace_basis, rank
from .lift import (LiftTarget, _coordinate_perm, _find_lift,
                   _incidence_points, _lift)
from .lincode import CharacteristicVector, GeneratorMatrix, _locate
from .projgeom import (codeword_weights, incidence, incidence_columns,
                       point_table, theta)


# ---------------------------------------------------------------------------
# monomial-semilinear transforms


@dataclass(frozen=True)
class MonomialTransform:
    """(sigma, lambdas, rho) acting on k x n matrices as rho(X P_sigma D)."""
    spec: FieldSpec
    sigma: tuple[int, ...]
    lambdas: tuple[int, ...]
    rho: int = 0

    def __post_init__(self):
        # refuses non-integers: 0.5, and 1.0 too
        as_ints((*self.sigma, *self.lambdas, self.rho))
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)) or len(self.lambdas) != n:
            raise ValueError("malformed transform")
        if not all(0 < l < self.spec.q for l in self.lambdas):
            raise ValueError("scalings must be nonzero field elements")
        if not 0 <= self.rho < self.spec.m:
            raise ValueError(f"rho must be in 0..{self.spec.m - 1}")

    def apply(self, x: GFMatrix) -> GFMatrix:
        spec = self.spec
        if x.ncols != len(self.sigma):
            raise ValueError(f"expected {len(self.sigma)} columns, "
                             f"got {x.ncols}")
        cols = x.columns()
        out = [spec.scale(lam, cols[j])
               for lam, j in zip(self.lambdas, _perm_inverse(self.sigma))]
        if self.rho:
            frob = spec.frobenius_table(self.rho)
            out = [[frob[e] for e in col] for col in out]
        return GFMatrix._wrap(spec, [list(row) for row in zip(*out)])


@dataclass
class EquivalenceWitness:
    """Certificate for Q @ G2 == rho(G1 P_sigma diag(lambdas))."""
    sigma: tuple[int, ...]
    lambdas: tuple[int, ...]
    rho: int
    q_matrix: GFMatrix

    def transform(self, spec: FieldSpec) -> MonomialTransform:
        return MonomialTransform(spec, self.sigma, self.lambdas, self.rho)


@dataclass
class Verdict:
    """An equivalence decision, with a verified `witness` when equivalent."""
    equivalent: bool
    method: str
    witness: EquivalenceWitness | None = None


def verify_witness(c1: GeneratorMatrix, c2: GeneratorMatrix,
                   witness: EquivalenceWitness) -> bool:
    """Recheck a witness from scratch against the stored matrices."""
    spec = c1.spec
    if c2.spec != spec or (c2.k, c2.n) != (c1.k, c1.n):
        return False
    q = witness.q_matrix
    if q.spec != spec or q.nrows != c1.k or q.ncols != c1.k or rank(q) != c1.k:
        return False
    try:
        # MonomialTransform refuses a malformed (sigma, lambdas, rho), and
        # apply one whose width is not c1's
        rhs = witness.transform(spec).apply(c1.mat)
    except ValueError:
        return False
    return mat_mul(q, c2.mat) == rhs


# ---------------------------------------------------------------------------
# binary matrices fed to the canonicalizer


def _side(code: GeneratorMatrix) -> GeneratorMatrix:
    """The code whose binary matrices get canonicalized in place of `code`.

    This is the dual when 2k > n, so the point table has theta(n - k)
    points instead of theta(k).  It stays `code` when the dual has a zero
    column (`code` holds a weight-1 word; k = n leaves no dual at all).
    The choice depends only on (n, k) and the minimum distance being 1,
    so equivalent codes always take the same side.
    """
    if 2 * code.k <= code.n:
        return code
    basis = nullspace_basis(code.mat)
    if not basis or not all(any(col) for col in zip(*basis)):
        return code
    return GeneratorMatrix._checked(code.spec, basis)


def build_ceimpg_matrix(chi: CharacteristicVector) -> ColoredBinaryMatrix:
    """`incidence()`, with column j recolored by the multiplicity chi[j];
    a color-preserving column permutation fixes the support.  It shares the
    cached incidence's records and bit matrix
    (`ColoredBinaryMatrix.recolored`), and so its symmetry."""
    spec = chi.spec
    return incidence(chi.k, spec.q, spec.modulus).recolored(chi.counts)


def build_shortened(code: GeneratorMatrix) -> ColoredBinaryMatrix:
    """Hyperplane-by-point support of the code: entry (i, p) = 1 iff the
    p-th distinct point of the code (`lincode._locate` order: of first
    appearance) has nonzero inner product with hyperplane i.  Column p is
    colored by the point's multiplicity.  A hyperplane separates any two
    distinct points, so no two columns are equal.

    The entries are the columns of the incidence at the points' table
    positions (`projgeom.incidence_columns`): a slice of the geometry's
    cached incidence when it is small enough, else the dot kernel's output.
    The matrix keeps them as its `bits` and packs them into its byte
    records.
    """
    points, positions = _locate(code)
    table = point_table(code.k, code.q, code.spec.modulus)
    return ColoredBinaryMatrix.from_bits(incidence_columns(table, positions),
                                         [len(coords) for coords in points])


def _spans_binary(vectors, k: int) -> bool:
    """Whether the GF(2) vectors `vectors`, each an int whose bits are its
    coordinates (the first the most significant), span GF(2)^k, read in
    order up to the k-th pivot of an XOR basis."""
    basis: dict[int, int] = {}  # pivot bit -> basis vector
    for v in vectors:
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
            if len(basis) == k:
                return True
    return False


class _Side:
    """A code, its `side` (`_side`), and, each built on first use, the
    side's distinct `points` with their point-table `positions`, found in
    one walk over its normalized columns (`lincode._locate`); the
    incidence `columns` at those positions and the codeword `weights` read
    off them, which with the points' `mults` make the code's `profile`;
    the shortened `matrix`, which wraps those columns only when a
    search reads it; the minimum-weight `rows` of a binary side (None when
    all rows are kept), the canonical `form` of the rows `kept`, and the
    code's own `target` (`lift.LiftTarget`: its rref and support graph),
    which every candidate lifted onto the code shares.  Its `incidence`
    matrix, which the ceimpg route and a search past the coset cap read,
    is built on each read from the `positions` and `mults`, with no walk of
    its own.  A record lives in one process: a `--jobs` worker keys the
    copy it inherits and sends back forms, which `batch.classify` sets on
    the record it holds (a cesimpg key's as its `form`)."""

    def __init__(self, code: GeneratorMatrix):
        self.code = code
        self.side = _side(code)

    @cached_property
    def _located(self) -> tuple[list[tuple[int, ...]], list[int]]:
        """(`points`, `positions`), from one walk over the columns."""
        return _locate(self.side)

    points = property(lambda self: self._located[0])
    positions = property(lambda self: self._located[1])

    @cached_property
    def columns(self) -> np.ndarray:
        """The incidence's columns at the side's points, as
        `build_shortened` gathers them (`projgeom.incidence_columns`)."""
        table = point_table(self.side.k, self.side.q, self.side.spec.modulus)
        return incidence_columns(table, self.positions)

    @cached_property
    def mults(self) -> list[int]:
        """Each point's multiplicity, the color of its column."""
        return [len(coords) for coords in self.points]

    @cached_property
    def matrix(self) -> ColoredBinaryMatrix:
        """`build_shortened(side)`, wrapping `columns`."""
        return ColoredBinaryMatrix.from_bits(self.columns, self.mults)

    @cached_property
    def weights(self) -> list[int]:
        """Each row's weight, a column counted by its multiplicity: the
        weight of that hyperplane's codeword."""
        return codeword_weights(self.columns, self.mults)

    @property
    def profile(self) -> tuple:
        """What every monomial map and field automorphism keeps of the
        code, read off this record with no search: whether its side is the
        dual, n, the side's dimension, its sorted `weights` (the side's
        weight distribution) and its points' sorted multiplicities.  Codes
        whose profiles differ are inequivalent."""
        return (self.side is not self.code, self.code.n, self.side.k,
                tuple(sorted(self.weights)), tuple(sorted(self.mults)))

    @cached_property
    def rows(self) -> ColoredBinaryMatrix | None:
        """Over GF(2), the rows of `matrix` whose codewords have the least
        weight, when their hyperplanes span GF(2)^k; else None.

        Over GF(2) a row is the support of its codeword, and a codeword is
        its support.  When the minimum-weight words span the side, a point
        permutation that keeps their supports is linear on a spanning set,
        so it keeps the whole side; and every one that keeps the side keeps
        its weights.  So these rows alone have the automorphism group of all
        rows, and an isomorphism of two such matrices is one of the full
        matrices.  A point on every one of these hyperplanes would be
        orthogonal to all of GF(2)^k, so the reduced matrix still has no
        zero and no equal columns.  Every monomial map keeps whether the
        minimum-weight words span, so equivalent sides take the same branch
        (inequivalent ones of one weight distribution need not).  Over q > 2
        a support is no codeword and the point group can grow, so the
        reduction is binary only."""
        if self.side.q != 2:
            return None
        k, low = self.side.k, min(self.weights)
        rows = [i for i, w in enumerate(self.weights) if w == low]
        # over GF(2) the point at table position i is i + 1 in binary.
        # Whether they span does not depend on the order: the table lists
        # the points with a nonzero first coordinate last, so a scan from
        # the end meets a spanning set sooner
        if not _spans_binary((i + 1 for i in reversed(rows)), k):
            return None
        return ColoredBinaryMatrix.from_bits(self.columns[rows], self.mults)

    @property
    def kept(self) -> ColoredBinaryMatrix:
        """The rows searched: `rows` when the binary gate holds, else all
        of `matrix`."""
        return self.matrix if self.rows is None else self.rows

    @cached_property
    def form(self) -> CanonResult:
        return canonical_form(self.kept)

    @cached_property
    def target(self) -> LiftTarget:
        return LiftTarget(self.code)

    def drop_keying(self) -> None:
        """Forget what only keying reads: a batch keeps its records."""
        for name in ("columns", "matrix", "weights", "rows"):
            self.__dict__.pop(name, None)

    @property
    def incidence(self) -> ColoredBinaryMatrix:
        """The side's `build_ceimpg_matrix`, a recoloring of its geometry's
        cached incidence, so not kept here."""
        counts = [0] * theta(self.side.k - 1, self.side.q)
        for j, m in zip(self.positions, self.mults):
            counts[j] = m
        return build_ceimpg_matrix(CharacteristicVector(
            self.side.spec, self.side.k, tuple(counts)))


# ---------------------------------------------------------------------------
# decision procedures


def _comparable_sides(c1: GeneratorMatrix, c2: GeneratorMatrix):
    """The `_Side` records of two codes whose shapes and sides allow
    equivalence, else None; raises on mismatched fields."""
    if c1.spec != c2.spec:
        raise ValueError("codes live over different fields")
    if (c1.n, c1.k) != (c2.n, c2.k):
        return None
    s1, s2 = _Side(c1), _Side(c2)
    return (s1, s2) if s1.side.k == s2.side.k else None


def ceimpg_equiv(c1: GeneratorMatrix, c2: GeneratorMatrix) -> Verdict:
    """Decide equivalence by one isomorphism search (`bmcanon.is_isomorphic`)
    of the multiplicity-colored incidence matrices of the codes' sides
    (their duals when 2k > n), and lift the map found, moved onto the
    points, as cesimpg_equiv lifts its pi0.  It is a collineation, so it
    lifts at once, on sides of dimension other than 2 and over q <= 4 (the
    fundamental theorem of projective geometry); on a dimension-2 side over
    q >= 5 a failed lift goes on to a frame's orbit (`lift._find_lift`)."""
    sides = _comparable_sides(c1, c2)
    if sides is None:
        return Verdict(False, "ceimpg")
    s1, s2 = sides
    gamma = bmcanon.is_isomorphic(s1.incidence, s2.incidence)
    if gamma is None:
        return Verdict(False, "ceimpg")
    found = _find_lift(s1, s2, _incidence_points(gamma, s1, s2))
    if found is None:
        return Verdict(False, "ceimpg")
    return Verdict(True, "ceimpg", _witness(c1, s2.target, *found))


def _witness(c1: GeneratorMatrix, target: LiftTarget, sigma, rho: int,
             lambdas) -> EquivalenceWitness:
    """The witness of a lift (`lift._lift`) of c1 onto the code of
    `target`, rechecked from scratch.  Q = A T2, where T2 @ G2 == rref(G2)
    and A is the k pivot columns of rho(c1 P_sigma diag(lambdas)), read
    with k^2 table lookups.  `verify_witness` checks Q's rank, once per
    witness; a lift that fails it raises."""
    spec = c1.spec
    log, exp = spec.log, spec.exp
    sigma_inv = _perm_inverse(sigma)
    cols = [(sigma_inv[p], log[lambdas[p]]) for p in target.red.pivots]
    a = [[exp[log[row[j]] + ll] for j, ll in cols] for row in c1.mat.rows]
    if rho:
        frob = spec.frobenius_table(rho)
        a = [[frob[x] for x in row] for row in a]
    q = mat_mul(GFMatrix._wrap(spec, a), target.red.transform)
    witness = EquivalenceWitness(tuple(sigma), tuple(lambdas), rho, q)
    if not verify_witness(c1, target.code, witness):
        raise RuntimeError("internal error: assembled witness failed verification")
    return witness


def cesimpg_equiv(c1: GeneratorMatrix, c2: GeneratorMatrix) -> Verdict:
    """Decide equivalence via shortened matrices plus monomial lifting.

    The shortened matrices are those of the codes' sides (`_side`: the
    duals when 2k > n); lifting and the witness are on c1 and c2
    themselves. Codes on different sides, with different weight profiles,
    or with non-isomorphic shortened matrices, are inequivalent outright.
    The profiles of the two sides (`_Side.profile`: their weight
    distributions, the sorted `_Side.weights`, and their sorted point
    multiplicities) are compared before any search, as ceimpg_equiv does
    not: every monomial map and field automorphism keeps them, and both
    sides are primal or both dual.  Over GF(2), when the minimum-weight
    words span a side, only their rows are searched (`_Side.rows`), with
    the same point group and isomorphisms; equivalent sides take the same
    branch, and two sides of one profile on two branches keep different
    numbers of rows, which `bmcanon.is_isomorphic` refuses before any
    search.  Otherwise one
    isomorphism pi0 of the sides' kept matrices comes from
    `bmcanon.is_isomorphic`, with no canonical form; None proves
    inequivalence.  Its coordinate map sigma0 is lifted first, trying each
    field automorphism; only when it fails is the first side canonicalized,
    for the orbit of a frame of its points under its point group, and one
    collineation per image lifted (`lift._find_lift`).  Past the coset cap
    on a side of dimension 2, and past the node budget, the typed error
    stands: no verdict comes without a witness.  Q is built, and its rank
    checked, only for the witness.
    """
    sides = _comparable_sides(c1, c2)
    if sides is None:
        return Verdict(False, "cesimpg")
    s1, s2 = sides
    if s1.profile != s2.profile:
        return Verdict(False, "cesimpg")
    pi0 = bmcanon.is_isomorphic(s1.kept, s2.kept)
    if pi0 is None:
        return Verdict(False, "cesimpg")
    found = _find_lift(s1, s2, pi0)
    if found is None:
        return Verdict(False, "cesimpg")
    return Verdict(True, "cesimpg", _witness(c1, s2.target, *found))


def decide_equivalence(c1: GeneratorMatrix, c2: GeneratorMatrix,
                       algo: str = "auto") -> Verdict:
    """Decide whether c1 and c2 are equivalent, by the route `algo` names:
    "cesimpg" (`cesimpg_equiv`), "ceimpg" (`ceimpg_equiv`), or "auto", the
    default, which takes cesimpg.  Each gives a verified witness on every
    equivalent verdict.  Any other name raises ValueError."""
    if algo == "ceimpg":
        return ceimpg_equiv(c1, c2)
    if algo in ("auto", "cesimpg"):
        return cesimpg_equiv(c1, c2)
    raise ValueError(f"unknown algorithm {algo!r}")


# ---------------------------------------------------------------------------
# automorphism groups


@dataclass
class AutomorphismReport:
    """Automorphism group of a code, in the code's own coordinates.

    `h1_order`/`h1_generators` describe the coordinate permutations that
    keep the point multiset of the code's side (`_side`: its dual when
    2k > n, whose monomial automorphisms move coordinates the same way).
    `h1_generators` are the point group's generators (`_coordinate_perm`),
    then the adjacent transpositions of the coordinates that share a point,
    which always lift; `h1_order` is the point group's order times m_p!
    for each point's multiplicity m_p.  `lifted`
    holds one verified monomial automorphism of the code itself per
    generator that lifts onto the code's lift target, and `failed` the
    others.
    `kernel_order` counts the diagonal-only automorphisms (the scalings
    fixing the code with the identity permutation): (q-1)^c for the c
    connected components of the support graph of the rref, so q-1 unless
    the code decomposes.  When every generator lifts over a prime field,
    `order` = h1_order * kernel_order; otherwise None (`complete` False;
    composite fields never report an order).
    Only `h1_order`, `kernel_order`, `order` and `complete` are invariants
    of the code; `h1_generators`, `lifted` and `failed` depend on the order
    of its columns, so a column-permuted copy may report other ones.
    """
    h1_order: int
    h1_generators: list[tuple[int, ...]]
    lifted: list[EquivalenceWitness]
    failed: list[tuple[int, ...]]
    kernel_order: int
    order: int | None
    complete: bool


def code_aut_group(code: GeneratorMatrix) -> AutomorphismReport:
    """The automorphism group of `code` (see AutomorphismReport).  H1 comes
    from the shortened matrix of the code's side (its dual when 2k > n),
    over GF(2) from its minimum-weight rows alone when those words span the
    side (`_Side.rows`: the same group); each generator is lifted onto
    the code's one lift target, whose support forest also counts the
    kernel's components."""
    spec = code.spec
    rec = _Side(code)
    r, points, target = rec.form, rec.points, rec.target
    gens = [_coordinate_perm(g, points, points) for g in r.generators]
    h1_order = r.group_order
    for coords in points:
        h1_order *= math.factorial(len(coords))
        for a, b in zip(coords, coords[1:]):
            gamma = list(range(code.n))
            gamma[a], gamma[b] = b, a
            gens.append(tuple(gamma))
    lifted: list[EquivalenceWitness] = []
    failed: list[tuple[int, ...]] = []
    for tau in gens:
        lift = _lift(code, target, tau)
        if lift is None:
            failed.append(tau)
        else:
            lifted.append(_witness(code, target, tau, *lift))
    kernel = (spec.q - 1) ** target.components
    complete = spec.m == 1 and not failed
    order = h1_order * kernel if complete else None
    return AutomorphismReport(h1_order, gens, lifted, failed, kernel, order,
                              complete)
