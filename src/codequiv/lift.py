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
lift, the point maps fixed by the images of one frame of the first side's
points (or of all of them, where they hold no frame) under its point
group, the automorphism group of the first matrix (its canonical form), or
past the coset cap one isomorphism of the sides' incidence matrices, found
by the same targeted search (`_find_lift`).  The records are read, never
built, here.
"""

from __future__ import annotations

import math

from . import bmcanon
from .bmcanon import _perm_inverse
from .errors import BudgetExceededError
from .gfmatrix import GFMatrix, RREFResult, _eliminate, mat_mul, rref
from .lincode import GeneratorMatrix
from .projgeom import _ranks

COSET_CAP = 10 ** 6


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


def _orbit(base: tuple[int, ...], gens):
    """Yield every image of the tuple `base` under <gens> (`base` first,
    BFS order), each permutation g moving a tuple t to (g[x] for x in t)."""
    seen, queue = {base}, [base]
    for a in queue:  # the queue grows as it is read
        yield a
        for g in gens:
            b = tuple(g[x] for x in a)
            if b not in seen:
                seen.add(b)
                queue.append(b)


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


def _point_maps(s1, s2, pi0, reduced, frame):
    """Yield (rhos, pi): the point maps of s1 onto s2 to lift, each under
    the field automorphisms `rhos` (None: all of them).

    With no `frame` each image of all s points under the point group is a
    point map, pi0 o pi.  Else each image T fixes x -> B rho(x) per rho:
    with `reduced` the k x s matrix X of s1's points in reduced echelon
    form and c its column at the frame's last point, Y = diag(c)^-1
    reduced holds that point at (1, ..., 1) and the others on unit
    vectors, so B rho(X) = M diag(d) rho(Y), where M holds the first k
    points of pi0(T) and M d is the last.  A map is yielded when every
    image is a point of s2 of the same multiplicity."""
    gens = s1.form.generators
    if frame is None:
        for t in _orbit(tuple(range(len(s1.points))), gens):
            yield None, [pi0[p] for p in t]
        return
    spec, k, mults = s1.code.spec, s1.side.k, s1.mults
    y = [spec.scale(spec.invs[row[frame[k]]], row) for row in reduced]
    ys = [GFMatrix._wrap(spec, [[frob[x] for x in row] for row in y])
          for frob in map(spec.frobenius_table, range(spec.m))]
    cols2 = s2.side.columns()
    x2, mults2 = [cols2[coords[0]] for coords in s2.points], s2.mults
    index2 = {j: t for t, j in enumerate(s2.positions)}
    for t in _orbit(frame, gens):
        images = [list(r) for r in zip(*(x2[pi0[p]] for p in t))]
        if (_eliminate(spec, images, range(k + 1)) != list(range(k))
                or not all(row[k] for row in images)):
            continue  # the images are no frame
        z = GFMatrix._wrap(spec, [list(r) for r in zip(*(
            spec.scale(row[k], x2[pi0[p]]) for row, p in zip(images, t)))])
        for rho, y_rho in enumerate(ys):
            moved = [spec.scale(spec.invs[next(filter(None, col))], col)
                     for col in mat_mul(z, y_rho).columns()]
            pi = [index2.get(j) for j in _ranks(moved, k, spec.q)]
            if None not in pi and [mults2[j] for j in pi] == mults:
                yield (rho,), pi


def _find_lift(s1, s2, pi0):
    """(sigma, rho, lambdas) for the first candidate permutation that lifts
    code s1 onto the lift target of code s2 (`_Side.target`), or None when
    none does; s1 and s2 are `equiv._Side` records.

    `pi0` is an isomorphism of the sides' kept matrices (`_Side.kept`), as
    a map of their points, or one of their incidences (`_incidence_points`);
    its coordinate map sigma0 (`_coordinate_perm`) is lifted first.  A
    monomial map moves the points by a collineation x -> B rho(x) keeping
    multiplicities, so by pi0 o pi for some pi in the point group P, the
    automorphism group of the first kept matrix (its `form`); permuting a
    point's coordinates is a monomial automorphism, so the point map
    decides.  A collineation is fixed by rho and the images of a frame, k +
    1 points any k of them independent: here the points' first basis in
    order and their first point with no zero coordinate on it, or, on a
    side with none (a decomposable one), all its points.  The candidates
    are the point maps of this base's orbit under P (`_point_maps`), at
    most min(|P|, s!/(s-b)!) for s points and a base of b; None proves that
    no monomial map exists.  Past COSET_CAP on that bound, the candidate is
    one isomorphism of the sides' incidences (`_Side.incidence`,
    `bmcanon.is_isomorphic`) moved onto the points: a collineation on sides
    of dimension 3 or more, so none proves inequivalence, and on dimension
    2, whose incidence group is Sym(q+1), BudgetExceededError is raised
    instead (a frame needs 102 points of PG(1, q) for that)."""
    g1, points1, points2 = s1.code, s1.points, s2.points
    sigma0 = _coordinate_perm(pi0, points1, points2)
    lift = _lift(g1, s2.target, sigma0)
    if lift is not None:
        return (sigma0, *lift)
    s = len(points1)
    reduced = [[row[c[0]] for c in points1] for row in s1.side.mat.rows]
    pivots = _eliminate(g1.spec, reduced, range(s))
    extra = next((j for j in range(s) if j not in pivots
                  and all(row[j] for row in reduced)), None)
    frame = None if extra is None else (*pivots, extra)
    bound = min(s1.form.group_order, math.perm(s, len(frame or points1)))
    if bound <= COSET_CAP:
        for rhos, pi in _point_maps(s1, s2, pi0, reduced, frame):
            sigma = _coordinate_perm(pi, points1, points2)
            lift = _lift(g1, s2.target, sigma, rhos)
            if lift is not None:
                return (sigma, *lift)
        return None
    if s1.side.k == 2:
        raise BudgetExceededError(
            f"sigma0 does not lift and the orbit bound ({bound}) exceeds "
            f"the coset cap ({COSET_CAP})")
    gamma = bmcanon.is_isomorphic(s1.incidence, s2.incidence)
    if gamma is None:
        return None
    sigma = _coordinate_perm(_incidence_points(gamma, s1, s2), points1,
                             points2)
    lift = _lift(g1, s2.target, sigma)
    if lift is None:
        raise RuntimeError("internal error: incidence isomorphism did not lift")
    return (sigma, *lift)
