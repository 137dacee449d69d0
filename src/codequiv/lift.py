"""Lifting coordinate permutations of two codes to monomial witnesses.

A candidate coordinate permutation sigma of two [n, k]_q codes lifts when
some invertible Q, nonzero scalings lambda and field automorphism rho give

    Q @ G2  ==  rho(G1 @ P_sigma @ diag(lambda))

(the orientation of `equiv`).  The lift works against a `LiftTarget`, built
once per second code from its own reduced row echelon form: the scalings
lambda are carried along that form's bipartite support graph, one free
scalar per connected component, under each field automorphism, all of
which share one elimination of the moved matrix (`_lift`).  A lift yields
(rho, lambdas) only; Q is assembled, and rank-checked, once, where a
witness is built and verified (`equiv._witness`).  Lifting always stays on
the codes themselves, never on the duals that `equiv._side` may search in
their place.

The candidates between two `equiv._Side` records are sigma0, the
coordinate map of one isomorphism of their kept shortened matrices or of
their incidence matrices (`_incidence_points`), then, only when it does not
lift, sigma0 composed with the rest of the point group, the automorphism
group of the first matrix (its canonical form), or past the coset cap one
isomorphism of the sides' incidence matrices, found by the same targeted
search (`_find_lift`).  The records are read, never built, here.
"""

from __future__ import annotations

from . import bmcanon
from .bmcanon import _perm_inverse
from .errors import BudgetExceededError
from .gfmatrix import RREFResult, _eliminate, rref
from .lincode import GeneratorMatrix

COSET_CAP = 10 ** 6


def _perm_compose(outer, inner) -> tuple[int, ...]:
    """Permutation applying `inner` first: result[i] = outer[inner[i]]."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


def _coordinate_perm(pi, points1, points2) -> tuple[int, ...]:
    """The coordinate permutation that carries the coordinates of point p
    of `points1` onto those of point pi[p] of `points2`, in index order."""
    sigma = [0] * sum(map(len, points1))
    for coords, t in zip(points1, pi):
        for a, b in zip(coords, points2[t]):
            sigma[a] = b
    return tuple(sigma)


def _incidence_points(gamma, s1, s2) -> list[int]:
    """The map of `equiv._Side` s1's points onto s2's that `gamma`, an
    isomorphism of their `incidence` matrices on point-table positions,
    gives: its colors are multiplicities, so it keeps the points."""
    index2 = {j: p for p, j in enumerate(s2.positions)}
    return [index2[gamma[j]] for j in s1.positions]


def _support_forest(red: RREFResult, n: int):
    """Spanning forest of the bipartite support graph of a reduced row
    echelon form R: pivot coordinate pivots[s] stands for row s, every other
    coordinate c for column c, and the two are adjacent when R[s][c] != 0.
    Each component is walked from its highest-numbered coordinate; yields
    (coordinate, parent) in walk order, parent None at a root."""
    # a pivot's neighbours in column order, a column's in row order
    nbrs = [[] for _ in range(n)]
    for p, row in zip(red.pivots, red.rref.rows):
        for c, x in enumerate(row):
            if x and c != p:
                nbrs[p].append(c)
                nbrs[c].append(p)
    seen = [False] * n
    for root in range(n - 1, -1, -1):
        if seen[root]:
            continue
        seen[root] = True
        yield root, None
        stack = [root]
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    yield w, v
                    stack.append(w)


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


class LiftTarget:
    """A code G2 as `_lift` reads it, built once per code and shared by
    every candidate lifted onto it: `red` = rref(G2), T2 @ G2 == R2, with
    R2's identity columns at the pivots p_0..p_k-1; the `support` of each
    row of R2; the `edges` of the spanning forest of R2's support graph
    (`_support_forest`), each (v, parent, s, c, sign, log R2[s][c]) for the
    entry (s, c) it reads, sign 1 when v is the pivot of row s and -1 when
    v is the column c; the `checks` (s, p_s, c, log R2[s][c]) for every
    other nonzero entry off the pivots, which the scalings the edges carry
    must also satisfy; and the forest's number of `components`."""

    __slots__ = ("code", "red", "support", "edges", "checks", "components")

    def __init__(self, code: GeneratorMatrix):
        red = rref(code.mat)
        rows, pivots, log = red.rref.rows, red.pivots, code.spec.log
        row_of = {p: s for s, p in enumerate(pivots)}
        self.code, self.red = code, red
        self.support = [[x != 0 for x in row] for row in rows]
        self.edges, tree, self.components = [], set(), 0
        for v, p in _support_forest(red, code.n):
            if p is None:
                self.components += 1
                continue
            s = row_of.get(v)
            s, c, sign = (s, p, 1) if s is not None else (row_of[p], v, -1)
            self.edges.append((v, p, s, c, sign, log[rows[s][c]]))
            tree.add((s, c))
        # an entry on a forest edge holds by construction
        self.checks = [(s, p, c, log[x]) for s, p in enumerate(pivots)
                       for c, x in enumerate(rows[s])
                       if x and c != p and (s, c) not in tree]


def _lift(g1: GeneratorMatrix, target: LiftTarget, sigma, rhos=None):
    """(rho, lambdas) for the first field automorphism rho of `rhos`
    (default all, in order) under which `sigma` lifts onto the code of
    `target` (Q @ G2 == rho(g1 P_sigma diag(lambdas)) for some invertible
    Q), or None when none does.  Raises ValueError when the two codes'
    shapes differ.  Q itself is built only with a witness
    (`equiv._witness`).

    Writing M for rho(G1) P_sigma and A for its columns at R2's pivots, a
    lift needs A invertible; then A^-1 M == E1 has the same identity
    columns, Q = A diag(mu_p0..mu_pk-1) T2, and the scalings mu (lambdas =
    rho^-1(mu)) are exactly the all-nonzero solutions of mu_ps R2[s][c] ==
    mu_c E1[s][c].  So E1 and R2 must share their support, and mu is one
    free scalar per connected component of that support's bipartite graph,
    set to 1 at the component's highest-numbered coordinate and carried
    along the target's `edges`; the target's `checks` are the other
    equations.

    Applied entrywise, rho commutes with Gauss-Jordan: rho(M) has its zeros
    where M = G1 P_sigma has them, so it takes the same pivot rows and swaps
    and ends in rho(E1), of E1's support.  So M is eliminated, and the
    pivots and support tested, once for every rho; only the scalings and
    their consistency are computed per rho."""
    spec = g1.spec
    n = g1.n
    code2 = target.code
    if (code2.k, code2.n) != (g1.k, n):
        raise ValueError("shape mismatch")
    pivots = target.red.pivots
    sigma_inv = _perm_inverse(sigma)
    e1_0 = [[row[i] for i in sigma_inv] for row in g1.mat.rows]
    if _eliminate(spec, e1_0, pivots) != list(pivots):
        return None
    if any([x != 0 for x in a] != b for a, b in zip(e1_0, target.support)):
        return None
    # the scalings as discrete logs: every one is nonzero, and E1 and R2
    # share their support, so each ratio below is of nonzero entries
    log, exp, order = spec.log, spec.exp, spec.q - 1
    for rho in range(spec.m) if rhos is None else rhos:
        e1 = e1_0
        if rho:
            frob = spec.frobenius_table(rho)
            e1 = [[frob[x] for x in row] for row in e1_0]
        lmu = [0] * n
        for v, p, s, c, sign, lr in target.edges:
            lmu[v] = (lmu[p] + sign * (log[e1[s][c]] - lr)) % order
        if any((lmu[p] + lr - lmu[c] - log[e1[s][c]]) % order
               for s, p, c, lr in target.checks):
            continue
        # rho^-1(g^l) = g^(l p^(m - rho))
        back = spec.p ** ((spec.m - rho) % spec.m)
        return rho, tuple(exp[l * back % order] for l in lmu)
    return None


def _find_lift(s1, s2, pi0):
    """(sigma, rho, lambdas) for the first candidate permutation that lifts
    code s1 onto the lift target of code s2 (`_Side.target`), or None when
    none does; s1 and s2 are `equiv._Side` records.

    `pi0` is an isomorphism of the sides' kept matrices (`_Side.kept`, both
    reduced or neither, their incidences' columns at the points), as a map
    of their points, or one of their incidences (`_incidence_points`).  The
    permutations carrying the first side's point multiset onto the second's
    are sigma0 o pi o t: sigma0 is pi0 moved to coordinates by
    `_coordinate_perm`, pi runs over the point group P, the automorphism
    group of the first kept matrix (the same for the minimum-weight rows
    alone), moved likewise, and t runs over the permutations of each
    point's own coordinates.  The candidates are sigma0 o pi, pi in P,
    sigma0 first; only when sigma0 does not lift is the first side's `form`
    read, for P, its order and the coset cap, and P's other elements
    streamed.  Any isomorphism serves as pi0: every one spans the same
    coset.  Nor do the t lose anything: coordinates of one point have
    proportional columns in the side, c_j = a c_i.  Swapping them and
    scaling by a and a^-1 maps the side onto itself, a monomial
    automorphism of the side, and so of the code (with the inverse scalings
    when the side is the dual).  Every t is thus the permutation of a
    monomial automorphism of the first code, and sigma0 o pi o t lifts
    exactly when sigma0 o pi does, so None proves that no monomial map
    exists.
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
    lift = _lift(g1, s2.target, sigma0)
    if lift is not None:
        return (sigma0, *lift)
    r1 = s1.form
    if r1.group_order <= COSET_CAP:
        taus = _iter_group([_coordinate_perm(g, points1, points1)
                            for g in r1.generators], g1.n)
        next(taus)  # the identity: sigma0 itself
        for tau in taus:
            sigma = _perm_compose(sigma0, tau)
            lift = _lift(g1, s2.target, sigma)
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
    sigma = _coordinate_perm(_incidence_points(gamma, s1, s2), points1,
                             points2)
    lift = _lift(g1, s2.target, sigma)
    if lift is None:
        raise RuntimeError("internal error: incidence isomorphism did not lift")
    return (sigma, *lift)
