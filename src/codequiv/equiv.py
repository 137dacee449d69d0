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

* the point-multiplicity route: append the multiplicity support row to the
  full point/hyperplane incidence structure and compare canonical forms
  (complete invariant; no monomial witness);
* the shortened route: compare canonical forms of the hyperplane-by-
  coordinate support matrices, then lift each candidate coordinate
  permutation (sigma0 composed with the point group of the automorphism
  group, which leaves out the permutations of repeated points, or only
  sigma0 when the point group outgrows the coset cap) to an explicit
  monomial witness against the second code's own reduced row echelon form:
  the scalings lambda are carried along its bipartite support graph, one
  free scalar per connected component.
  For prime fields exhausting the coset is conclusive; for composite fields
  every field automorphism is tried as well.  A decision the lift cannot
  finish falls back to the first route, unless the code's side has
  dimension 2 over q >= 5, where that route is incomplete
  (`_ceimpg_complete`); then the typed error stands.

Both binary matrices have theta(k) = (q^k - 1)/(q - 1) rows or columns, so
for a high-rate code (2k > n) they are built from its dual instead, which
has dimension n - k (`_side` names the exceptions).  C1 ~ C2 exactly when
C1^perp ~ C2^perp under the same coordinate permutation and field
automorphism, so the dual's canonical forms yield the same candidate
permutations and the same permutation group.  Lifting, witnesses and the
diagonal kernel always stay on the codes themselves and their own reduced
row echelon forms.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field as dc_field

from . import bmcanon
from .bmcanon import (ColoredBinaryMatrix, _sigma_from_canons, canonical_form,
                      serialize)
from .errors import BudgetExceededError, ResourceLimitError
from .gfield import FieldSpec
from .gfmatrix import (GFMatrix, RREFResult, _eliminate, mat_mul,
                       nullspace_basis, rank, rref)
from .lincode import CharacteristicVector, GeneratorMatrix, characteristic_vector
from .projgeom import incidence, nonzero_dot_masks, point_table

COSET_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# monomial-semilinear transforms


def _perm_inverse(sigma) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv)


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
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)) or len(self.lambdas) != n:
            raise ValueError("malformed transform")
        if any(l == 0 for l in self.lambdas):
            raise ValueError("zero scaling")

    def apply(self, x: GFMatrix) -> GFMatrix:
        spec = self.spec
        inv = _perm_inverse(self.sigma)
        cols = x.columns()
        out = []
        for t in range(len(self.sigma)):
            lam = self.lambdas[t]
            col = cols[inv[t]]
            out.append([spec.frobenius(spec.mul(lam, e), self.rho) for e in col])
        return GFMatrix.from_columns(spec, out)


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

    `witness` is populated only by the lifting route; the canonical-form
    route proves equivalence without producing a monomial map.
    """
    equivalent: bool
    method: str
    witness: EquivalenceWitness | None = None


def verify_witness(c1: GeneratorMatrix, c2: GeneratorMatrix,
                   witness: EquivalenceWitness) -> bool:
    """Recheck a witness from scratch against the stored matrices."""
    spec = c1.spec
    n = c1.n
    if (c2.spec != spec or (c2.k, c2.n) != (c1.k, n)
            or len(witness.sigma) != n or sorted(witness.sigma) != list(range(n))
            or len(witness.lambdas) != n or any(l == 0 for l in witness.lambdas)
            or not 0 <= witness.rho < spec.m):
        return False
    q = witness.q_matrix
    if q.spec != spec or q.nrows != c1.k or q.ncols != c1.k or rank(q) != c1.k:
        return False
    lhs = mat_mul(q, c2.mat)
    rhs = witness.transform(spec).apply(c1.mat)
    return lhs == rhs


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
    return GeneratorMatrix(code.spec, basis)


def _ceimpg_complete(side: GeneratorMatrix) -> bool:
    """Whether the ceimpg key of `side` is a complete invariant.  It is not
    for dimension 2 over q >= 5, where the incidence of PG(1, q) is a
    matching and inequivalent point multisets share a key."""
    return side.k != 2 or side.q <= 4


def build_ceimpg_matrix(chi: CharacteristicVector) -> ColoredBinaryMatrix:
    """Incidence rows (color 0) stacked over the chi support row (color 1),
    with column j colored by the multiplicity chi[j]."""
    spec = chi.spec
    inc = incidence(chi.k, spec.q, spec.modulus)
    support = 0
    width = inc.n_points
    for j, c in enumerate(chi.counts):
        if c:
            support |= 1 << (width - 1 - j)
    masks = list(inc.row_masks) + [support]
    row_colors = [0] * width + [1]
    return ColoredBinaryMatrix.from_masks(masks, width, row_colors, chi.counts)


def build_shortened(code: GeneratorMatrix) -> ColoredBinaryMatrix:
    """Hyperplane-by-coordinate support of the code: entry (i, j) = 1 iff
    coordinate j's column has nonzero inner product with hyperplane i.

    Columns are colored by their point multiplicities.
    """
    spec = code.spec
    table = point_table(code.k, spec.q, spec.modulus)
    cols = code.columns()
    masks = nonzero_dot_masks(table, cols)
    chi = characteristic_vector(code)
    col_colors = [chi.counts[table.position_of(col)] for col in cols]
    return ColoredBinaryMatrix.from_masks(masks, code.n, [0] * len(masks),
                                          col_colors)


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
    spec = g1.spec
    k, n = g1.k, g1.n
    r2, pivots = red2.rref.rows, red2.pivots
    if red2.rref.nrows != k or red2.rref.ncols != n:
        raise ValueError("shape mismatch")
    rho %= spec.m
    g1p = g1.mat.map_entries(lambda e: spec.frobenius(e, rho)) if rho else g1.mat
    sigma_inv = _perm_inverse(sigma)
    moved = [[row[i] for i in sigma_inv] for row in g1p.rows]
    e1 = [list(row) for row in moved]
    if _eliminate(spec, e1, pivots) != list(pivots):
        return None
    if any([x != 0 for x in a] != [x != 0 for x in b] for a, b in zip(e1, r2)):
        return None
    mul, div = spec.mul, spec.div
    row_of = {p: s for s, p in enumerate(pivots)}
    mu = [1] * n
    for v, p in _support_forest(red2, n):
        if p is None:
            continue
        s = row_of.get(v)
        if s is not None:
            mu[v] = div(mul(mu[p], e1[s][p]), r2[s][p])
        else:
            s = row_of[p]
            mu[v] = div(mul(mu[p], r2[s][v]), e1[s][v])
    for s, p in enumerate(pivots):
        for c in range(n):
            if r2[s][c] and mul(mu[p], r2[s][c]) != mul(mu[c], e1[s][c]):
                return None
    a = GFMatrix(spec, [[mul(row[p], mu[p]) for p in pivots] for row in moved])
    q = mat_mul(a, red2.transform)
    if rank(q) != k:
        raise RuntimeError("internal error: lifted Q is singular")
    back = (spec.m - rho) % spec.m
    lambdas = tuple(spec.frobenius(v, back) for v in mu)
    return q, lambdas


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


def _lift(g1: GeneratorMatrix, red2: RREFResult, sigma):
    """(rho, Q, lambdas) for the first field automorphism rho under which
    `sigma` lifts (Q @ G2 == rho(g1 P_sigma diag(lambdas)), red2 = rref(G2)),
    or None when no rho lifts."""
    for rho in range(g1.spec.m):
        lift = monomial_from_sigma(g1, red2, sigma, rho)
        if lift is not None:
            return (rho, *lift)
    return None


def _find_lift(g1: GeneratorMatrix, red2: RREFResult, r1, r2):
    """(sigma, rho, Q, lambdas) for the first candidate permutation that
    lifts onto red2 = rref(G2), or None when none does.

    `r1`, `r2` are the canonical forms of the shortened matrices of the
    sides (`_side`) of g1 and G2, each in its code's own coordinates.  The
    permutations carrying the first matrix onto the second are sigma0 o tau,
    where sigma0 maps the first matrix onto the second and tau runs over its
    automorphism group H1 = P T: the twin group T permutes the members of
    each twin class of r1, and the point group P = <r1.point_generators>
    moves whole classes.  The candidates are sigma0 o pi, pi in P, identity
    first.  That loses nothing: twin columns of a shortened matrix meet the
    same hyperplanes, so they are coordinates whose columns in the side are
    proportional, c_j = a c_i.  Swapping them and scaling by a and a^-1
    maps the side onto itself, a monomial automorphism of the side, and so
    of the code (with the inverse scalings when the side is the dual).
    Every twin permutation t is thus the permutation of a monomial
    automorphism of g1, and sigma0 o pi o t lifts exactly when sigma0 o pi
    does, so None proves that no monomial map exists.
    When the point group is larger than COSET_CAP, only sigma0 is tried,
    and BudgetExceededError is raised if it does not lift.
    """
    sigma0 = _sigma_from_canons(r1, r2)
    if sigma0 is None:
        return None
    capped = r1.point_order > COSET_CAP
    taus = ([tuple(range(g1.n))] if capped
            else _iter_group(r1.point_generators, g1.n))
    for tau in taus:
        sigma = _perm_compose(sigma0, tau)
        lift = _lift(g1, red2, sigma)
        if lift is not None:
            return (sigma, *lift)
    if capped:
        raise BudgetExceededError(
            f"sigma0 does not lift and the point group ({r1.point_order}) "
            f"exceeds the coset cap ({COSET_CAP})")
    return None


# ---------------------------------------------------------------------------
# decision procedures


def _comparable_sides(c1: GeneratorMatrix, c2: GeneratorMatrix):
    """The sides (`_side`) of two codes whose shapes and sides allow
    equivalence, else None; raises on mismatched fields."""
    if c1.spec != c2.spec:
        raise ValueError("codes live over different fields")
    if (c1.n, c1.k) != (c2.n, c2.k):
        return None
    s1, s2 = _side(c1), _side(c2)
    return (s1, s2) if s1.k == s2.k else None


def ceimpg_equiv(c1: GeneratorMatrix, c2: GeneratorMatrix) -> Verdict:
    """Decide equivalence by canonical forms of the multiplicity-extended
    incidence matrices of the codes' sides (their duals when 2k > n).
    Complete invariant, except on sides of dimension 2 over q >= 5, whose
    incidence is a matching; produces no monomial witness."""
    sides = _comparable_sides(c1, c2)
    if sides is None:
        return Verdict(False, "ceimpg")
    m1, m2 = (build_ceimpg_matrix(characteristic_vector(s)) for s in sides)
    sigma = bmcanon.is_isomorphic(m1, m2)
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
    Codes on different sides, or with non-isomorphic shortened matrices,
    are inequivalent outright.
    Otherwise the candidate permutations (one isomorphism sigma0 composed
    with each element of the point group of the first matrix, sigma0
    first; `_find_lift`) are lifted in turn, trying each field automorphism;
    exhausting them proves inequivalence.  When the point group outgrows
    COSET_CAP, only sigma0 is tried.  If it does not lift, or a
    canonical search fails, the decision falls back to the canonical-form
    route, losing only the witness; on sides of dimension 2 over q >= 5,
    whose ceimpg key is incomplete, the typed error is raised instead.
    Lifting one candidate onto rref(c2) is a walk over its support graph,
    with no budget of its own.
    """
    sides = _comparable_sides(c1, c2)
    if sides is None:
        return Verdict(False, "cesimpg")
    try:
        r1, r2 = (canonical_form(build_shortened(s)) for s in sides)
        found = _find_lift(c1, rref(c2.mat), r1, r2)
    except BudgetExceededError:
        if not _ceimpg_complete(sides[0]):
            raise
        verdict = ceimpg_equiv(c1, c2)
        return Verdict(verdict.equivalent, "ceimpg-fallback")
    if found is None:
        return Verdict(False, "cesimpg")
    return Verdict(True, "cesimpg", _witness(c1, c2, *found))


def decide_equivalence(c1: GeneratorMatrix, c2: GeneratorMatrix,
                       algo: str = "auto") -> Verdict:
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

    `h1_order`/`h1_generators` describe the permutation group fixing the
    shortened matrix of the code's side (`_side`: its dual when 2k > n,
    whose monomial automorphisms move coordinates the same way), and
    `h1_generators` ends with the transpositions of the coordinates that
    repeat a point (`CanonResult.twin_classes`), which always lift; `lifted`
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
    from the shortened matrix of the code's side (its dual when 2k > n);
    each generator is lifted, and the kernel counted, on the code itself."""
    spec = code.spec
    r = canonical_form(build_shortened(_side(code)))
    red = rref(code.mat)
    lifted: list[EquivalenceWitness] = []
    failed: list[tuple[int, ...]] = []
    for tau in r.generators:
        lift = _lift(code, red, tau)
        if lift is None:
            failed.append(tau)
        else:
            lifted.append(_witness(code, code, tau, *lift))
    forest = _support_forest(red, code.n)
    kernel = (spec.q - 1) ** sum(p is None for _, p in forest)
    complete = spec.m == 1 and not failed
    order = r.group_order * kernel if complete else None
    return AutomorphismReport(r.group_order, r.generators, lifted, failed,
                              kernel, order, complete)


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
    _keys: list[str] = dc_field(default_factory=list, repr=False)


def _short_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _ceimpg_key(side: GeneratorMatrix) -> str:
    m = build_ceimpg_matrix(characteristic_vector(side))
    return serialize(canonical_form(m).matrix)


def _code_key(code: GeneratorMatrix, mode: str):
    """(key, canon, error) of one code.  `canon` is the CanonResult of the
    shortened matrix that cesimpg bucket comparisons lift with, None for
    ceimpg; a per-item failure sets only `error`.  A key built from the dual
    starts with "dual:", so that a [13,10] code never shares a key with the
    [13,3] code whose matrix is the same."""
    try:
        side = _side(code)
        tag = "" if side is code else "dual:"
        if mode == "ceimpg":
            return tag + _ceimpg_key(side), None, None
        canon = canonical_form(build_shortened(side))
        return tag + serialize(canon.matrix), canon, None
    except (BudgetExceededError, ResourceLimitError) as e:
        return None, None, f"{type(e).__name__}: {e}"


def _key_share(conn, codes, mode):
    """Body of a forked worker: `_code_key` of each of `codes`, sent back as
    (True, keys) in one message, or (False, exception)."""
    try:
        reply = True, [_code_key(code, mode) for code in codes]
    except Exception as e:
        reply = False, e
    conn.send(reply)
    conn.close()


def _batch_keys(codes, mode, jobs):
    """`_code_key` of every code, in order.  `jobs` counts this process plus
    at most `jobs - 1` workers (never more processes than codes), each keying
    one contiguous share; this process keys the first share itself.  A
    worker is forked, so it reads its share, and the module state of the
    caller, from the memory it inherits, and pipes its keys back in one
    message.  A worker costs about 10 ms of CPU, so more jobs pay off only
    on batches whose keying takes much longer than that.  An exception in any
    share is raised here; the workers are reaped before this returns, on
    every path, so their CPU counts in RUSAGE_CHILDREN."""
    jobs = min(jobs, len(codes))
    if jobs <= 1:
        return [_code_key(code, mode) for code in codes]
    share = -(-len(codes) // jobs)  # 4 codes, jobs=3: shares 2 and 2
    import multiprocessing  # here: importing it costs every start-up ~10 ms
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for lo in range(share, len(codes), share):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_key_share,
                               args=(send, codes[lo:lo + share], mode))
            proc.start()
            workers.append((proc, recv))
            send.close()  # a worker that dies unanswered ends in EOFError
        keys = [_code_key(code, mode) for code in codes[:share]]
        for proc, recv in workers:
            try:
                ok, payload = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"a keying worker exited with status {proc.exitcode} "
                    f"before answering") from None
            if not ok:
                raise payload
            keys += payload
        for proc, _ in workers:
            proc.join()
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
    members with the lifting procedure of cesimpg_equiv, reusing each
    code's canonical form across pairs; a code's rref is computed the first
    time it is compared with a class representative.  Both keys are built
    from each code's side (`_side`: its dual when 2k > n, the key then
    prefixed "dual:"); lifting stays on the codes themselves.  `jobs`
    counts the processes that key the codes: this one plus `jobs - 1`
    forked workers, one contiguous share each, all reaped before this
    returns; a worker costs about 10 ms of CPU, so only batches that key
    for much longer gain.  The workers are forked whatever the default
    start method, so they see this process's module state; jobs > 1 needs
    POSIX.  When the point group (`_find_lift`) is past COSET_CAP only
    sigma0 is tried, and a pair it does not decide falls back to comparing
    ceimpg keys, each built at most once, unless the sides have dimension 2
    over q >= 5, where those keys are incomplete.  Classes are ordered by
    first appearance.
    Per-item errors, from keying a code (node budget or point-table size)
    or from comparing it with a class representative (node budget or coset
    cap), are collected in `errors` (by code index) without aborting the
    batch.
    """
    start = time.perf_counter()
    codes = list(codes)
    if algo not in ("ceimpg", "cesimpg", "auto"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if codes and any(c.spec != codes[0].spec for c in codes):
        raise ValueError("classification requires a single ambient field")
    mode = "ceimpg" if algo == "ceimpg" else "cesimpg"
    keyed = _batch_keys(codes, mode, jobs)
    errors = [(i, msg) for i, (_, _, msg) in enumerate(keyed) if msg]
    ceimpg_keys: dict[int, str | BudgetExceededError] = {}
    reds: dict[int, RREFResult] = {}

    def ceimpg_key(i: int) -> str:
        # a typed failure is kept too and raised anew on every later request
        key = ceimpg_keys.get(i)
        if key is None:
            try:
                key = _ceimpg_key(_side(codes[i]))
            except BudgetExceededError as e:
                key = e
            ceimpg_keys[i] = key
        if isinstance(key, BudgetExceededError):
            raise type(key)(*key.args)
        return key

    def equivalent(a: int, b: int) -> bool:
        if b not in reds:
            reds[b] = rref(codes[b].mat)
        try:
            return _find_lift(codes[a], reds[b], keyed[a][1],
                              keyed[b][1]) is not None
        except BudgetExceededError:
            if not _ceimpg_complete(_side(codes[a])):
                raise
            return ceimpg_key(a) == ceimpg_key(b)

    buckets: dict[str, list[CodeClass]] = {}
    classes: list[CodeClass] = []
    keys: list[str] = []
    for i, (key, _, msg) in enumerate(keyed):
        if msg:
            continue
        bucket = buckets.setdefault(key, [])
        try:
            # the ceimpg route takes its key as complete: one class per bucket
            joined = next((cls for cls in bucket if mode == "ceimpg"
                           or equivalent(cls.representative, i)), None)
        except BudgetExceededError as e:
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
    return ClassifyResult(mode, len(codes), classes, errors, elapsed, digest, keys)
