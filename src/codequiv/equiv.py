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
  point/hyperplane incidence structure by the code's point multiplicities
  and decide whether the two are isomorphic, a batch by their canonical
  forms (complete invariant; no monomial witness);
* the shortened route: compare the weight distributions of the codes'
  sides first, then search for one isomorphism sigma0 between the
  hyperplane-by-point support matrices of their distinct points, colored
  by multiplicity (`bmcanon.is_isomorphic`: the first leaf of one search
  tree, looked for in the other; no canonical form), then lift a
  candidate coordinate permutation to an explicit monomial witness
  against the second code's own reduced row echelon form: the
  scalings lambda are carried along its bipartite support graph, one free
  scalar per connected component, under each field automorphism, all of
  which share one elimination of the moved matrix (`_lift`).  The
  candidates are sigma0, then, only when it does not lift, sigma0
  composed with the rest of the point group, the automorphism group of
  the first matrix (its canonical form), or past the coset cap one
  isomorphism of the sides' incidence matrices, found by the same
  targeted search (`_find_lift`).  The side's distinct points and their
  point-table positions come from one walk over its columns
  (`lincode._locate`, which `characteristic_vector` reads too).  The
  support matrix is the incidence restricted to the columns at those
  positions, sliced out of the cached incidence when the geometry is small
  enough (`build_shortened`).  The weight distribution is read off those
  columns (`_Side.weights`, `projgeom.codeword_weights`: a row's weight,
  each column counted by its multiplicity, is the weight of that
  hyperplane's codeword), before any matrix object is built or row mask
  packed; monomial maps and field automorphisms keep it, so differing
  distributions prove inequivalence with no search at all.  The
  point-multiplicity route takes no such shortcut: it stays an
  independent check of every inequivalent verdict.

Both binary matrices have theta(k) = (q^k - 1)/(q - 1) rows or columns, so
for a high-rate code (2k > n) they are built from its dual instead, which
has dimension n - k (`_side` names the exceptions).  C1 ~ C2 exactly when
C1^perp ~ C2^perp under the same coordinate permutation and field
automorphism, so the dual's canonical forms yield the same candidate
permutations and the same permutation group.  Lifting, witnesses and the
diagonal kernel always stay on the codes themselves and their own reduced
row echelon forms.

Over GF(2) the shortened matrix of a side whose minimum-weight words span it
is cut to the rows of those words (`_Side.rows`): a row is the support
of its codeword, and a codeword is its support, so these rows have the same
automorphism group and the same isomorphisms as all theta(k) rows.  Every
monomial map keeps the gate (whether those words span), so equivalent codes
take the same branch, and the keys of such sides start with "min:".  Over
q > 2 a support is no codeword, so every other field keeps all rows, as
does the point-multiplicity route.

All that the shortened route derives from a code is built once, on first
use, in the code's one `_Side` record: `cesimpg_equiv`, `code_aut_group`
and the `classify` keys read it, and `_find_lift` takes two.  A pair
decision canonicalizes a side only when sigma0 does not lift; `classify`
keeps only the forms of its keys, reads sigma0 off them, and makes a
record around a code's form only when a bucket compares that code.  This route
builds no canonical form of an incidence matrix: past the coset cap each
comparison searches the two incidence matrices anew.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import time
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import bmcanon
from .bmcanon import (CanonResult, ColoredBinaryMatrix, _perm_inverse,
                      _sigma_from_canons, canonical_form)
from .errors import BudgetExceededError, ResourceLimitError
from .gfield import FieldSpec, as_ints
from .gfmatrix import (GFMatrix, RREFResult, _eliminate, mat_mul,
                       nullspace_basis, rank, rref)
from .lincode import CharacteristicVector, GeneratorMatrix, _locate
from .projgeom import (codeword_weights, incidence, incidence_columns,
                       point_table, theta)

COSET_CAP = 10 ** 6
# the typed failures of one code, which a batch collects per item
_ITEM_ERRORS = (BudgetExceededError, ResourceLimitError)
# CPU seconds of keying still to do from which forked `--jobs` workers pay
# off (`_batch_keys`): on 2 vCPUs, the wall time of a batch at jobs=2 drops
# below jobs=1 between 25 and 48 ms of serial keying (README)
FORK_PAYS_S = 0.05


# ---------------------------------------------------------------------------
# monomial-semilinear transforms


def _perm_compose(outer, inner) -> tuple[int, ...]:
    """Permutation applying `inner` first: result[i] = outer[inner[i]]."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


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
    """Outcome of an equivalence decision.

    `witness` is set on every equivalent verdict of the lifting route; the
    canonical-form route proves equivalence without producing a monomial map.
    """
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
    column (`code` holds a weight-1 word; k = n leaves no dual at all), and
    when the dual would have dimension 2 over q > 3: the incidence of
    PG(1, q) is a matching, whose group Sym(q+1) is PGL(2, q) only for
    q <= 3, so there the ceimpg key would lose completeness (q >= 5) and the
    shortened matrix would gain automorphisms that do not lift.
    The choice depends only on (n, k, q) and the minimum distance being 1,
    so equivalent codes always take the same side.
    """
    if 2 * code.k <= code.n or (code.n - code.k == 2 and code.q > 3):
        return code
    basis = nullspace_basis(code.mat)
    if not basis or not all(any(col) for col in zip(*basis)):
        return code
    return GeneratorMatrix._checked(code.spec, basis)


def build_ceimpg_matrix(chi: CharacteristicVector) -> ColoredBinaryMatrix:
    """`incidence()`, with column j recolored by the multiplicity chi[j];
    a color-preserving column permutation fixes the support.  It shares the
    cached incidence's masks and bit matrix (`ColoredBinaryMatrix.recolored`),
    and so its symmetry."""
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
    The matrix keeps them as its `bits` and packs its row masks only when
    they are read.
    """
    points, positions = _locate(code)
    spec = code.spec
    bits = incidence_columns(point_table(code.k, spec.q, spec.modulus),
                             positions)
    return ColoredBinaryMatrix.from_bits(bits,
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
    off them; the shortened `matrix`, which wraps those columns only when a
    search reads it; the minimum-weight `rows` of a binary side (None when
    all rows are kept), the canonical `form` of the rows `kept`, and the
    code's own `red` = rref(code).  A `form` already at hand (`classify`
    has its keys') is passed in.  Its `incidence` matrix, which the ceimpg
    route and a search past the coset cap read, is built on each read from
    the same walk.  A record lives in one process: `--jobs` workers send
    back forms, not records."""

    def __init__(self, code: GeneratorMatrix, form: CanonResult | None = None):
        self.code = code
        self.side = _side(code)
        if form is not None:
            self.form = form

    @cached_property
    def _located(self) -> tuple[list[tuple[int, ...]], list[int]]:
        """(`points`, `positions`), from one walk over the columns."""
        return _locate(self.side)

    @property
    def points(self) -> list[tuple[int, ...]]:
        return self._located[0]

    @property
    def positions(self) -> list[int]:
        return self._located[1]

    @cached_property
    def columns(self) -> np.ndarray:
        """The incidence's columns at the side's points, as
        `build_shortened` gathers them (`projgeom.incidence_columns`)."""
        side = self.side
        return incidence_columns(
            point_table(side.k, side.q, side.spec.modulus), self.positions)

    @property
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
    def red(self) -> RREFResult:
        return rref(self.code.mat)

    @property
    def incidence(self) -> ColoredBinaryMatrix:
        """The side's `build_ceimpg_matrix`, a recoloring of its geometry's
        cached incidence, so not kept here; its multiplicities are scattered
        from `points` and `positions`."""
        side = self.side
        counts = [0] * theta(side.k - 1, side.q)
        for coords, pos in zip(*self._located):
            counts[pos] = len(coords)
        return build_ceimpg_matrix(
            CharacteristicVector(side.spec, side.k, tuple(counts)))


def _coordinate_perm(pi, points1, points2) -> tuple[int, ...]:
    """The coordinate permutation that carries the coordinates of point p
    of `points1` onto those of point pi[p] of `points2`, in index order."""
    sigma = [0] * sum(map(len, points1))
    for coords, t in zip(points1, pi):
        for a, b in zip(coords, points2[t]):
            sigma[a] = b
    return tuple(sigma)


# ---------------------------------------------------------------------------
# lifting a coordinate permutation to a monomial witness


def _support_forest(red: RREFResult, n: int):
    """Spanning forest of the bipartite support graph of a reduced row
    echelon form R: pivot coordinate pivots[s] stands for row s, every other
    coordinate c for column c, and the two are adjacent when R[s][c] != 0.
    Each component is walked from its highest-numbered coordinate; yields
    (coordinate, parent) in walk order, parent None at a root."""
    rows, pivots = red.rref.rows, red.pivots
    row_of = {p: s for s, p in enumerate(pivots)}
    seen = [False] * n
    for root in range(n - 1, -1, -1):
        if seen[root]:
            continue
        seen[root] = True
        yield root, None
        stack = [root]
        while stack:
            v = stack.pop()
            s = row_of.get(v)
            if s is not None:
                nbrs = [c for c in range(n) if c != v and rows[s][c]]
            else:
                nbrs = [p for t, p in enumerate(pivots) if rows[t][v]]
            for w in nbrs:
                if not seen[w]:
                    seen[w] = True
                    yield w, v
                    stack.append(w)


def monomial_from_sigma(g1: GeneratorMatrix, red2: RREFResult, sigma,
                        rho: int = 0):
    """Solve for (Q, lambdas) with Q @ G2 == rho(G1 P_sigma diag(lambdas)).

    `red2` is rref(G2): T2 @ G2 == R2, with R2's identity columns at the
    pivots p_0..p_k-1.  Writing M for rho(G1) P_sigma and A for its columns
    at those pivots, a lift needs A invertible; then A^-1 M == E1 has the
    same identity columns, Q = A diag(mu_p0..mu_pk-1) T2, and the scalings
    mu (lambdas = rho^-1(mu)) are exactly the all-nonzero solutions of
    mu_ps R2[s][c] == mu_c E1[s][c].  So E1 and R2 must share their
    support, and mu is one free scalar per connected component of that
    support's bipartite graph, set to 1 at the component's highest-numbered
    coordinate and carried along its edges.  Returns (Q, lambdas), or None
    when no lift exists.
    """
    lift = _lift(g1, red2, sigma, (rho % g1.spec.m,))
    return None if lift is None else lift[1:]


# ---------------------------------------------------------------------------
# group element streaming


def _iter_group(gens, n: int):
    """Yield every element of <gens> (identity first, BFS order)."""
    ident = tuple(range(n))
    seen = {ident}
    yield ident
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple(g[a[i]] for i in range(n))
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
                    yield b
        frontier = nxt


def _lift(g1: GeneratorMatrix, red2: RREFResult, sigma, rhos=None):
    """(rho, Q, lambdas) for the first field automorphism rho of `rhos`
    (default all, in order) under which `sigma` lifts (Q @ G2 ==
    rho(g1 P_sigma diag(lambdas)), red2 = rref(G2); `monomial_from_sigma`),
    or None when none does.

    Applied entrywise, rho commutes with Gauss-Jordan: rho(M) has its zeros
    where M = G1 P_sigma has them, so it takes the same pivot rows and swaps
    and ends in rho(E1), of E1's support.  So M is eliminated, and the
    pivots and support tested, once for every rho; only the scalings, Q and
    their consistency are computed per rho."""
    spec = g1.spec
    k, n = g1.k, g1.n
    r2, pivots = red2.rref.rows, red2.pivots
    if red2.rref.nrows != k or red2.rref.ncols != n:
        raise ValueError("shape mismatch")
    sigma_inv = _perm_inverse(sigma)
    moved0 = [[row[i] for i in sigma_inv] for row in g1.mat.rows]
    e1_0 = [list(row) for row in moved0]
    if _eliminate(spec, e1_0, pivots) != list(pivots):
        return None
    if any([x != 0 for x in a] != [x != 0 for x in b]
           for a, b in zip(e1_0, r2)):
        return None
    # the scalings as discrete logs: every one is nonzero, and E1 and R2
    # share their support, so each ratio below is of nonzero entries
    log, exp, order = spec.log, spec.exp, spec.q - 1
    row_of = {p: s for s, p in enumerate(pivots)}
    forest = [(v, p) for v, p in _support_forest(red2, n) if p is not None]
    for rho in range(spec.m) if rhos is None else rhos:
        moved, e1 = moved0, e1_0
        if rho:
            frob = spec.frobenius_table(rho)
            moved, e1 = ([[frob[x] for x in row] for row in m]
                         for m in (moved0, e1_0))
        lmu = [0] * n
        for v, p in forest:
            s = row_of.get(v)
            if s is not None:
                lmu[v] = (lmu[p] + log[e1[s][p]] - log[r2[s][p]]) % order
            else:
                s = row_of[p]
                lmu[v] = (lmu[p] + log[r2[s][v]] - log[e1[s][v]]) % order
        if any(r2[s][c] and (lmu[p] + log[r2[s][c]]
                             - lmu[c] - log[e1[s][c]]) % order
               for s, p in enumerate(pivots) for c in range(n)):
            continue
        a = GFMatrix._wrap(spec, [[exp[log[row[p]] + lmu[p]] for p in pivots]
                                  for row in moved])
        q = mat_mul(a, red2.transform)
        if rank(q) != k:
            raise RuntimeError("internal error: lifted Q is singular")
        # rho^-1(g^l) = g^(l p^(m - rho))
        back = spec.p ** ((spec.m - rho) % spec.m)
        return rho, q, tuple(exp[l * back % order] for l in lmu)
    return None


def _find_lift(s1: _Side, s2: _Side, pi0):
    """(sigma, rho, Q, lambdas) for the first candidate permutation that
    lifts code s1 onto the rref of code s2, or None when none does.

    `pi0` is an isomorphism of the sides' kept matrices (`_Side.kept`, both
    reduced or neither), as a map of their points.  The permutations
    carrying the first side's point multiset onto the second's are sigma0 o
    pi o t: sigma0 is pi0 moved to coordinates by `_coordinate_perm`, pi
    runs over the point group P, the automorphism group of the first kept
    matrix (the same for the minimum-weight rows alone), moved likewise,
    and t runs over the permutations of each point's own coordinates.  The
    candidates are sigma0 o pi, pi in P, sigma0 first; only when sigma0
    does not lift is the first side's `form` read, for P, its order and the
    coset cap, and P's other elements streamed.  Any isomorphism serves as
    pi0: every one spans the same coset.  Nor do the t lose anything:
    coordinates of one point have proportional columns in the side,
    c_j = a c_i.  Swapping them and scaling by a and a^-1 maps the side
    onto itself, a monomial automorphism of the side, and so of the code
    (with the inverse scalings when the side is the dual).  Every
    t is thus the permutation of a monomial automorphism of the first code,
    and sigma0 o pi o t lifts exactly when sigma0 o pi does, so None proves
    that no monomial map exists.
    When the point group is larger than COSET_CAP, the candidates are sigma0
    and then one isomorphism of the sides' incidence matrices
    (`_Side.incidence`), found by `bmcanon.is_isomorphic` with no canonical
    form and moved onto the sides' points.  For sides of dimension 3 or
    more it is a collineation, so it lifts, and finding none proves that no
    monomial map exists; for dimension 2, whose incidence group is
    Sym(q+1), BudgetExceededError is raised instead.
    """
    g1, points1, points2 = s1.code, s1.points, s2.points
    sigma0 = _coordinate_perm(pi0, points1, points2)
    lift = _lift(g1, s2.red, sigma0)
    if lift is not None:
        return (sigma0, *lift)
    r1 = s1.form
    if r1.group_order <= COSET_CAP:
        taus = _iter_group([_coordinate_perm(g, points1, points1)
                            for g in r1.generators], g1.n)
        next(taus)  # the identity: sigma0 itself
        for tau in taus:
            sigma = _perm_compose(sigma0, tau)
            lift = _lift(g1, s2.red, sigma)
            if lift is not None:
                return (sigma, *lift)
        return None
    if s1.side.k == 2:
        raise BudgetExceededError(
            f"sigma0 does not lift and the point group ({r1.group_order}) "
            f"exceeds the coset cap ({COSET_CAP})")
    gamma = bmcanon.is_isomorphic(s1.incidence, s2.incidence)
    if gamma is None:
        return None
    # gamma maps point-table positions; colors are multiplicities, so it
    # carries the first side's points onto the second's
    index2 = {j: p for p, j in enumerate(s2.positions)}
    pi = [index2[gamma[j]] for j in s1.positions]
    sigma = _coordinate_perm(pi, points1, points2)
    lift = _lift(g1, s2.red, sigma)
    if lift is None:
        raise RuntimeError("internal error: incidence isomorphism did not lift")
    return (sigma, *lift)


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
    """Decide equivalence by an isomorphism search (`bmcanon.is_isomorphic`)
    between the multiplicity-extended incidence matrices of the codes'
    sides (their duals when 2k > n).
    Complete invariant, except on sides of dimension 2 over q >= 5, whose
    incidence is a matching; produces no monomial witness."""
    sides = _comparable_sides(c1, c2)
    if sides is None:
        return Verdict(False, "ceimpg")
    sigma = bmcanon.is_isomorphic(*(s.incidence for s in sides))
    return Verdict(sigma is not None, "ceimpg")


def _witness(c1: GeneratorMatrix, c2: GeneratorMatrix, sigma, rho: int,
             q: GFMatrix, lambdas) -> EquivalenceWitness:
    """The witness of a lift of c1 onto rref(c2), rechecked from scratch."""
    witness = EquivalenceWitness(tuple(sigma), tuple(lambdas), rho, q)
    if not verify_witness(c1, c2, witness):
        raise RuntimeError("internal error: assembled witness failed verification")
    return witness


def cesimpg_equiv(c1: GeneratorMatrix, c2: GeneratorMatrix) -> Verdict:
    """Decide equivalence via shortened matrices plus monomial lifting.

    The shortened matrices are those of the codes' sides (`_side`: the
    duals when 2k > n); lifting and the witness are on c1 and c2 themselves.
    Codes on different sides, with different weight profiles, or with
    non-isomorphic shortened matrices, are inequivalent outright.  The
    weight profiles of the two shortened matrices (their sorted
    `_Side.weights`) are compared before any search: they
    are the weight distributions of the sides, which every monomial map
    and field automorphism keeps, and both sides are primal or both dual.
    Over GF(2), when the minimum-weight words span a side, only their rows
    are searched (`_Side.rows`), with the same point group and
    isomorphisms; equivalent sides take the same branch, and two sides of
    one profile on two branches keep different numbers of rows, which
    `bmcanon.is_isomorphic` refuses before any search.
    ceimpg_equiv does not take this shortcut, so that it stays an
    independent check of an inequivalent verdict.
    Otherwise one isomorphism pi0 of the sides' kept matrices comes from
    `bmcanon.is_isomorphic`, with no canonical form; None proves
    inequivalence.  Its coordinate map sigma0 is lifted first, trying each
    field automorphism; only when it fails is the first side canonicalized
    and sigma0 composed with each other element of its point group, the
    first matrix's automorphism group (`_find_lift`); exhausting them
    proves inequivalence.  When the point group outgrows COSET_CAP, one
    isomorphism of the sides' incidence matrices is searched for instead,
    again with `bmcanon.is_isomorphic`: it lifts, and none proves
    inequivalence.  On sides of dimension 2, and past the node budget (as
    in `classify`), the typed error stands: no verdict comes without a
    witness.
    Lifting one candidate onto rref(c2) is a walk over its support graph,
    with no budget of its own.
    """
    sides = _comparable_sides(c1, c2)
    if sides is None:
        return Verdict(False, "cesimpg")
    s1, s2 = sides
    if sorted(s1.weights) != sorted(s2.weights):
        return Verdict(False, "cesimpg")
    pi0 = bmcanon.is_isomorphic(s1.kept, s2.kept)
    if pi0 is None:
        return Verdict(False, "cesimpg")
    found = _find_lift(s1, s2, pi0)
    if found is None:
        return Verdict(False, "cesimpg")
    return Verdict(True, "cesimpg", _witness(c1, c2, *found))


def decide_equivalence(c1: GeneratorMatrix, c2: GeneratorMatrix,
                       algo: str = "auto") -> Verdict:
    """Decide whether c1 and c2 are equivalent, by the route `algo` names.

    "cesimpg" is `cesimpg_equiv`: weight profiles, one isomorphism search
    and lifting, and a verified witness on every equivalent verdict.
    "ceimpg" is `ceimpg_equiv`: the incidence matrices, with no witness.
    "auto", the default, takes the cesimpg route, the one that gives a
    witness.  Any other name raises ValueError.
    """
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
    generator that lifts onto the code's rref, and `failed` the others.
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
    side (`_Side.rows`: the same group); each generator is lifted, and
    the kernel counted, on the code itself."""
    spec = code.spec
    rec = _Side(code)
    r, points = rec.form, rec.points
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
        lift = _lift(code, rec.red, tau)
        if lift is None:
            failed.append(tau)
        else:
            lifted.append(_witness(code, code, tau, *lift))
    forest = _support_forest(rec.red, code.n)
    kernel = (spec.q - 1) ** sum(p is None for _, p in forest)
    complete = spec.m == 1 and not failed
    order = h1_order * kernel if complete else None
    return AutomorphismReport(h1_order, gens, lifted, failed, kernel, order,
                              complete)


# ---------------------------------------------------------------------------
# batch classification


@dataclass
class CodeClass:
    representative: int
    members: list[int]
    key_digest: str


@dataclass
class ClassifyResult:
    algo: str
    n_codes: int
    classes: list[CodeClass]
    errors: list[tuple[int, str]]
    elapsed: float
    digest: str


def _short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _code_key(code: GeneratorMatrix, mode: str):
    """(key, form, error) of one code, in this process and in a `--jobs`
    worker alike.  `form` is the `CanonResult` a cesimpg key is rendered
    from, which `classify` reads sigma0 off; None for ceimpg.  A per-item
    failure sets only `error`.  A key built from the dual
    starts with "dual:", so that a [13,10] code never shares a key with the
    [13,3] code whose matrix is the same.  A cesimpg key built from the
    minimum-weight rows alone starts with "min:", since such a matrix can
    have the shape of a full one of another dimension."""
    try:
        rec = _Side(code)
        tag = "" if rec.side is code else "dual:"
        if mode == "ceimpg":
            return tag + canonical_form(rec.incidence).serialize(), None, None
        if rec.rows is not None:
            tag = "min:" + tag
        return tag + rec.form.serialize(), rec.form, None
    except _ITEM_ERRORS as e:
        return None, None, f"{type(e).__name__}: {e}"


def _key_share(conn, codes, mode):
    """Body of a forked worker: `_code_key` of each of `codes`, sent back as
    (True, [(key, form, error), ...]) in one message, or (False,
    exception)."""
    try:
        reply = True, [_code_key(code, mode) for code in codes]
    except Exception as e:
        reply = False, e
    conn.send(reply)
    conn.close()


def _batch_keys(codes, mode, jobs):
    """`_code_key` of every code, in order, keyed by at most `jobs`
    processes: this one and up to `jobs - 1` forked workers.  This process
    keys the codes in order, and before each one projects its own keying CPU
    so far over the codes left (the mean per code times their number).  Once
    that CPU has reached a sample of FORK_PAYS_S / 8 and the projection
    FORK_PAYS_S, the codes left go to `_forked_keys`; a batch projected to
    key in less never forks.  At FORK_PAYS_S = 0 the workers start before
    the first code."""
    keys = []
    start = time.process_time()
    for done, code in enumerate(codes):
        left = len(codes) - done
        spent = time.process_time() - start
        if (min(jobs, left) > 1 and spent >= FORK_PAYS_S / 8
                and spent * left >= FORK_PAYS_S * done):
            return keys + _forked_keys(codes[done:], mode, min(jobs, left))
        keys.append(_code_key(code, mode))
    return keys


def _forked_keys(codes, mode, jobs):
    """`_code_key` of each of `codes`, in order, from this process and
    `jobs - 1` forked workers (2 <= jobs <= the number of codes).  The
    codes are cut into `jobs` contiguous shares, share i starting at
    len(codes) * i // jobs: this process keys the first, and a worker each
    further one.  A worker is forked, so it reads its share, and the module
    state of the caller, from the memory it inherits; it pipes its
    (key, form, error) triples back in one message.  An exception in any
    share is raised here.  A worker that has answered is joined, and one
    that has not is terminated, before this returns on every path, so
    their CPU counts in RUSAGE_CHILDREN."""
    cuts = [len(codes) * i // jobs for i in range(jobs + 1)]
    import multiprocessing  # here: importing it costs every start-up ~10 ms
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_key_share,
                               args=(send, codes[lo:hi], mode))
            proc.start()
            workers.append((proc, recv))
            send.close()  # a worker that dies unanswered ends in EOFError
        keys = [_code_key(code, mode) for code in codes[:cuts[1]]]
        for proc, recv in workers:
            try:
                ok, payload = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"a keying worker exited with status {proc.exitcode} "
                    f"before answering") from None
            proc.join()  # it has answered and exits by itself: never kill it
            if not ok:
                raise payload
            keys += payload
        return keys
    finally:
        for proc, recv in workers:
            recv.close()
            if proc.exitcode is None:
                proc.terminate()
            proc.join()


def classify(codes, algo: str = "ceimpg", jobs: int = 1) -> ClassifyResult:
    """Partition `codes` into equivalence classes.

    algo="ceimpg" groups by the complete canonical key.  algo="cesimpg"
    buckets by the shortened-matrix canonical key and separates bucket
    members with the lifting procedure of cesimpg_equiv (`_find_lift`).
    Both keys are built from each code's side (`_side`: its dual when
    2k > n, the key then prefixed "dual:"; a cesimpg key over GF(2) built
    from the minimum-weight rows is prefixed "min:"); lifting stays on the
    codes themselves.  A cesimpg bucket that already holds a class makes
    the `_Side` record of the code it compares, and of each representative
    it compares against, once per code, around the form its key came from.
    `jobs`, an integer >= 1, bounds the processes that
    key the codes: this one keys them in order until its own keying time
    projects at least FORK_PAYS_S of CPU for the rest, and only then cuts
    the rest into even contiguous shares, keys the first and forks up to
    `jobs - 1` workers for the others, which send back keys and forms, all
    reaped before this returns (`_batch_keys`).  The workers are forked
    whatever the default start method, so they see this process's module
    state; jobs > 1 needs POSIX.  Classes are ordered by first appearance.
    Per-item errors, from keying a code (node budget, point-table or
    incidence size) or from comparing it with a class representative (node
    budget, coset cap or incidence size), are collected in `errors` (by code
    index) without aborting the batch.
    """
    start = time.perf_counter()
    codes = list(codes)
    if algo not in ("ceimpg", "cesimpg"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if not isinstance(jobs, numbers.Integral) or jobs < 1:
        raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
    jobs = int(jobs)
    if codes and any(c.spec != codes[0].spec for c in codes):
        raise ValueError("classification requires a single ambient field")
    keyed = _batch_keys(codes, algo, jobs)
    errors = [(i, msg) for i, (_, _, msg) in enumerate(keyed) if msg]
    # code i's record, built when a bucket first compares it
    side = cache(lambda i: _Side(codes[i], keyed[i][1]))
    buckets: dict[str, list[CodeClass]] = {}
    classes: list[CodeClass] = []
    keys: list[str] = []
    for i, (key, form, msg) in enumerate(keyed):
        if msg:
            continue
        bucket = buckets.setdefault(key, [])
        joined = None
        try:
            for cls in bucket:
                # the ceimpg route takes its key as complete: one class per
                # bucket; cesimpg members of a bucket share their canonical
                # matrix, so pi0 is read off the forms the keys came from
                rep = cls.representative
                if algo == "ceimpg" or _find_lift(
                        side(rep), side(i),
                        _sigma_from_canons(keyed[rep][1], form)) is not None:
                    joined = cls
                    break
        except _ITEM_ERRORS as e:
            # the pair's comparison failed: code i stays unplaced
            errors.append((i, f"{type(e).__name__}: {e}"))
            continue
        if joined is None:
            joined = CodeClass(i, [], _short_digest(key))
            bucket.append(joined)
            classes.append(joined)
            keys.append(key)
        joined.members.append(i)
    errors.sort()
    digest = hashlib.sha256("\n\n".join(sorted(keys)).encode()).hexdigest()
    elapsed = time.perf_counter() - start
    return ClassifyResult(algo, len(codes), classes, errors, elapsed, digest)
