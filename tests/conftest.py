"""Shared brute-force oracles, implemented independently of the library.

Everything here works over prime fields with plain integer arithmetic mod q
(no codequiv field tables), so oracle results cannot inherit library bugs;
the exceptions cover extension fields too: `reference_monomial_from_sigma`
borrows the library's field tables and `nullspace_basis`,
`reference_generator_rows` its `GFMatrix`, `normalize_vector` and `rank`,
`reference_locate` its point table's `points`, and the per-entry references
(`reference_mat_mul`, `reference_rref`, `systematic_code`,
`reference_min_weight`) call FieldSpec's scalar methods once per entry,
never its row kernels `scale` and `add_scaled`.
"""

from __future__ import annotations

import functools
import itertools
from functools import lru_cache

import numpy as np
import pytest


def _span_vectors(rows, q, k):
    """All vectors in the row space of `rows` (tuples, mod q, prime q)."""
    out = {(0,) * k}
    for r in rows:
        extended = set()
        for v in out:
            for c in range(1, q):
                extended.add(tuple((x + c * y) % q for x, y in zip(v, r)))
        out |= extended
    return out


@lru_cache(maxsize=None)
def gl_matrices(k: int, q: int) -> tuple:
    """Every invertible k x k matrix over GF(q), q prime, as nested tuples,
    built row by row avoiding the span of the earlier rows."""
    vectors = list(itertools.product(range(q), repeat=k))

    def extend(rows):
        if len(rows) == k:
            yield tuple(rows)
            return
        span = _span_vectors(rows, q, k)
        for v in vectors:
            if v not in span:
                yield from extend(rows + [v])

    return tuple(extend([]))


@lru_cache(maxsize=None)
def _gl_array(k: int, q: int) -> np.ndarray:
    return np.array(gl_matrices(k, q), dtype=np.int64)


def _normalized_col_keys(mats: np.ndarray, q: int) -> np.ndarray:
    """mats: (M, k, n) over GF(q) with no zero columns.  Returns (M, n)
    integer keys of the normalized columns, sorted within each row."""
    m, k, n = mats.shape
    inv = np.array([0] + [pow(v, q - 2, q) for v in range(1, q)], dtype=np.int64)
    lead_idx = np.argmax(mats != 0, axis=1)
    lead_val = np.take_along_axis(mats, lead_idx[:, None, :], axis=1)[:, 0, :]
    normalized = (mats * inv[lead_val][:, None, :]) % q
    weights = (q ** np.arange(k - 1, -1, -1, dtype=np.int64))[None, :, None]
    keys = (weights * normalized).sum(axis=1)
    keys.sort(axis=1)
    return keys


def brute_force_equivalent(rows1, rows2, q: int) -> bool:
    """Monomial equivalence over prime GF(q) by scanning all of GL(k, q):
    equivalent iff some basis change of the first code has the same multiset
    of normalized columns (projective points) as the second."""
    g1 = np.array(rows1, dtype=np.int64)
    g2 = np.array(rows2, dtype=np.int64)
    k = g1.shape[0]
    if g1.shape != g2.shape:
        return False
    target = _normalized_col_keys(g2[None, :, :], q)[0]
    gl = _gl_array(k, q)
    images = np.einsum("mij,jn->min", gl, g1) % q
    keys = _normalized_col_keys(images, q)
    return bool((keys == target[None, :]).all(axis=1).any())


def brute_force_preserver_count(rows, q: int) -> int:
    """Number of S in GL(k, q) fixing the normalized-column multiset."""
    g = np.array(rows, dtype=np.int64)
    k = g.shape[0]
    target = _normalized_col_keys(g[None, :, :], q)[0]
    gl = _gl_array(k, q)
    images = np.einsum("mij,jn->min", gl, g) % q
    keys = _normalized_col_keys(images, q)
    return int((keys == target[None, :]).all(axis=1).sum())


def reference_monomial_from_sigma(g1, g2, sigma, rho=0):
    """The lift of `sigma` by linear algebra, as the library computed it
    before the support-graph walk: the (n-k)k x n homogeneous system
    Q g2_c == mu_c g'_c (c >= k) in the scalings mu, with g' the columns of
    rho(G1) P_sigma and Q = (mu_0 g'_0 ... mu_k-1 g'_k-1), then the first
    all-nonzero vector of its nullspace over coefficient tuples in
    lexicographic order, leading coefficient 1.  Extension fields need the
    library's field tables and `nullspace_basis`.  Returns (Q rows,
    lambdas) or None; g2 must be systematic."""
    from codequiv import GFMatrix, nullspace_basis
    spec = g1.spec
    k, n = g1.k, g1.n
    inv = [0] * n
    for i, s in enumerate(sigma):
        inv[s] = i
    moved = [[spec.frobenius(row[inv[s]], rho) for s in range(n)]
             for row in g1.mat.rows]
    eqs = []
    for c in range(k, n):
        for r in range(k):
            eq = [spec.mul(moved[r][s], g2.mat.rows[s][c]) for s in range(k)]
            eq += [0] * (n - k)
            eq[c] = spec.neg(moved[r][c])
            eqs.append(eq)
    if eqs:
        basis = nullspace_basis(GFMatrix(spec, eqs))
    else:
        basis = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for coeffs in itertools.product(range(spec.q), repeat=len(basis)):
        if next((c for c in coeffs if c), None) != 1:
            continue
        mu = [0] * n
        for c, b in zip(coeffs, basis):
            mu = [spec.add(x, spec.mul(c, y)) for x, y in zip(mu, b)]
        if all(mu):
            q_rows = [[spec.mul(moved[r][s], mu[s]) for s in range(k)]
                      for r in range(k)]
            back = (spec.m - rho) % spec.m
            return q_rows, tuple(spec.frobenius(v, back) for v in mu)
    return None


def reference_generator_rows(spec, rows):
    """The rows of GeneratorMatrix(spec, rows) as the library once built
    them: GFMatrix's checks, `normalize_vector` on each column, then
    `gfmatrix.rank` of the k x n result.  Raises the ValueError the
    constructor raises, with the same message."""
    from codequiv import GFMatrix
    from codequiv.gfield import normalize_vector
    from codequiv.gfmatrix import rank
    raw = GFMatrix(spec, rows)
    if raw.nrows == 0 or raw.ncols == 0:
        raise ValueError("generator matrix must be non-empty")
    cols = []
    for j, col in enumerate(raw.columns()):
        if not any(col):
            raise ValueError(f"column {j + 1} is zero")
        cols.append(normalize_vector(spec, col)[0])
    mat = GFMatrix(spec, [list(row) for row in zip(*cols)])
    if rank(mat) != raw.nrows:
        raise ValueError(f"rank is below k={raw.nrows}")
    return mat.rows


def systematic_code(code):
    """The systematic form (I_k | E) of `code`: its reduced row echelon
    form (`reference_rref`) with the pivot columns moved to the front, the
    rest keeping their order."""
    from codequiv import GeneratorMatrix
    rows, pivots = reference_rref(code.spec, code.mat.rows, code.n)
    cols = list(zip(*rows))
    order = pivots + [j for j in range(code.n) if j not in pivots]
    return GeneratorMatrix.from_columns(code.spec, [cols[j] for j in order])


def reference_locate(code):
    """(points, positions) of `code`, each column looked up in a dict of the
    point table's `points` (the table's unranking, not the library's
    ranking): each distinct point's coordinates in index order, the points
    in order of first appearance, and each point's 0-based table position."""
    from codequiv import point_table
    table = point_table(code.k, code.q, code.spec.modulus)
    index = {point: i for i, point in enumerate(table.points)}
    by_position: dict = {}
    for j, col in enumerate(code.columns()):
        by_position.setdefault(index[tuple(col)], []).append(j)
    return [tuple(c) for c in by_position.values()], list(by_position)


def reference_codeword_weights(masks, colors):
    """The weight of each row mask's codeword, bit (len(colors)-1-j)
    counted colors[j] times, by popcounting Python ints: the oracle of
    `projgeom.codeword_weights`, which reads the same weights off bit
    arrays."""
    n = len(colors)
    by_color: dict = {}
    for j, color in enumerate(colors):
        by_color[color] = by_color.get(color, 0) | 1 << (n - 1 - j)
    weights = [0] * len(masks)
    for color, bits in by_color.items():
        weights = [w + color * (mask & bits).bit_count()
                   for w, mask in zip(weights, masks)]
    return weights


def reference_pack_rows(rows) -> list[int]:
    """One int mask per row of a 2-D array or nested list, column j at bit
    C-1-j and any nonzero entry a set bit: the row written out as a string
    of 0s and 1s and read in base 2.  The oracle of the rows a
    `ColoredBinaryMatrix` stores as byte records (`packed`)."""
    return [int("".join("1" if e else "0" for e in row) or "0", 2)
            for row in rows]


def reference_record_masks(data: bytes, n_rows: int, n_cols: int):
    """The int masks of the `n_rows` byte records of `n_cols` bits each in
    `data`: each record's bytes written out as 8-digit binary strings, cut
    to its first n_cols digits and read in base 2."""
    width = -(-n_cols // 8)
    return [int("".join(f"{b:08b}" for b in data[i * width:(i + 1) * width])
                [:n_cols] or "0", 2)
            for i in range(n_rows)]


def reference_serialize(mat):
    """`bmcanon.serialize` rendered from the row masks: the color header,
    then each row's bits formatted as a 0/1 string, rows sorted by their
    masks."""
    C = mat.n_cols
    lines = ["c " + " ".join(str(c) for c in mat.col_colors)]
    lines += [f"{m:0{C}b}" if C else "" for m in sorted(mat.row_masks)]
    return "\n".join(lines)


def reference_min_weight(code):
    """The least weight of a nonzero codeword of `code`, over every
    message whose first nonzero entry is 1, each entry by FieldSpec's
    scalar `mul` and `add` (extension fields too)."""
    spec = code.spec
    best = code.n
    for msg in itertools.product(range(spec.q), repeat=code.k):
        if next(filter(None, msg), 0) != 1:
            continue
        word = reference_mat_mul(spec, [msg], code.mat.rows)[0]
        best = min(best, sum(map(bool, word)))
    return best


def reference_mat_mul(spec, a_rows, b_rows):
    """a @ b, one FieldSpec `mul` and `add` per term."""
    return [[functools.reduce(spec.add, map(spec.mul, row, col), 0)
             for col in zip(*b_rows)] if b_rows else [] for row in a_rows]


def reference_rref(spec, rows, ncols):
    """(reduced row echelon form, pivot columns) of `rows`, by Gauss-Jordan
    one entry at a time through FieldSpec's scalar methods."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = spec.inv(rows[r][c])
        rows[r] = [spec.mul(scale, e) for e in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [spec.add(x, spec.neg(spec.mul(f, y)))
                           for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def _moved_rows(mat, gamma):
    """Sorted row bits after column j moves to gamma[j]."""
    cols = mat.n_cols
    moved = []
    for mask in mat.row_masks:
        out = 0
        for j in range(cols):
            if mask & (1 << (cols - 1 - j)):
                out |= 1 << (cols - 1 - gamma[j])
        moved.append(out)
    return tuple(sorted(moved))


def brute_force_cbm_isomorphic(m1, m2):
    """Colored-binary-matrix isomorphism by trying every column permutation
    (ok for <= 8 columns).  Only the column colors and bit data are read."""
    if (m1.n_rows != m2.n_rows or m1.n_cols != m2.n_cols
            or sorted(m1.col_colors) != sorted(m2.col_colors)):
        return None
    cols = m1.n_cols
    target = m2.row_multiset()
    for gamma in itertools.permutations(range(cols)):
        if any(m1.col_colors[j] != m2.col_colors[gamma[j]] for j in range(cols)):
            continue
        if _moved_rows(m1, gamma) == target:
            return gamma
    return None


def reference_is_automorphism(mat, gamma) -> bool:
    """True when the column permutation `gamma` keeps column colors and the
    multiset of row bits."""
    if any(mat.col_colors[gamma[j]] != mat.col_colors[j]
           for j in range(mat.n_cols)):
        return False
    return _moved_rows(mat, gamma) == mat.row_multiset()


def brute_force_cbm_aut_count(mat) -> int:
    """Number of color-preserving column permutations fixing the row multiset."""
    return sum(reference_is_automorphism(mat, gamma)
               for gamma in itertools.permutations(range(mat.n_cols)))


def reference_leaf_cert(mat, order):
    """A leaf certificate as tuples: the column colors in column order
    `order`, then the sorted row bits with the columns read in that order.
    The canonical search's byte-record certificates hold the rows alone
    (every leaf lists the column colors in sorted order), and must compare
    exactly like the second member."""
    cols = mat.n_cols
    shifts = [cols - 1 - j for j in order]
    rows = []
    for mask in mat.row_masks:
        bits = 0
        for s in shifts:
            bits = (bits << 1) | ((mask >> s) & 1)
        rows.append(bits)
    return tuple(mat.col_colors[j] for j in order), tuple(sorted(rows))


def reference_refine(mat, col_cells, row_cells):
    """Equitable refinement by full recomputation: each pass re-splits every
    row cell by its counts against every column cell, then every column cell
    against every row cell, sub-cells ordered by that count vector, until a
    pass changes nothing.  The canonical search's incremental refinement
    must return exactly these ordered cells."""
    n_cols = mat.n_cols
    rows = mat.row_masks
    cols = [sum(1 << i for i, m in enumerate(rows) if m >> (n_cols - 1 - j) & 1)
            for j in range(n_cols)]

    def split(cells, vectors, against):
        out, changed = [], False
        for cell in cells:
            buckets = {}
            for x in cell:
                sig = tuple(bin(vectors[x] & m).count("1") for m in against)
                buckets.setdefault(sig, []).append(x)
            changed |= len(buckets) > 1
            out += [buckets[sig] for sig in sorted(buckets)]
        return out, changed

    while True:
        col_masks = [sum(1 << (n_cols - 1 - j) for j in cell) for cell in col_cells]
        row_cells, row_changed = split(row_cells, rows, col_masks)
        row_masks = [sum(1 << i for i in cell) for cell in row_cells]
        col_cells, col_changed = split(col_cells, cols, row_masks)
        if not (row_changed or col_changed):
            return col_cells, row_cells


def recursive_search(mat):
    """The canonical search as it was written before it became a loop over
    an explicit stack: `_dfs` recursing once per tree node, with the same
    child order, orbit pruning on the first path and return-to-depth
    backjumps.  The loop must build the identical tree, so every
    `CanonResult` field, the node count included, must match.  Keep inputs
    shallow (well under the interpreter's recursion limit)."""
    from codequiv import bmcanon
    from codequiv.bmcanon import _Search
    from codequiv.errors import BudgetExceededError

    class RecursiveSearch(_Search):
        def _dfs(self, col_cells, row_cells, path=None, splitters=None):
            path = [] if path is None else path
            self.nodes += 1
            if self.nodes > bmcanon.NODE_BUDGET:
                raise BudgetExceededError(
                    f"canonical-form search exceeded {bmcanon.NODE_BUDGET} nodes")
            col_cells, row_cells = self._refine(col_cells, row_cells,
                                                splitters)
            target_idx = None
            target_size = 1
            for idx, cell in enumerate(col_cells):
                if len(cell) > target_size:
                    target_idx = idx
                    target_size = len(cell)
            if target_idx is None:
                return self._handle_leaf(col_cells, path)
            depth = len(path)
            on_first_path = (self.first is None
                             or path == self.first[2][:depth])
            target = col_cells[target_idx]
            tried: list[int] = []
            for v in sorted(target):
                if tried and on_first_path:
                    # the orbit of v under the generators fixing the path
                    orbit = self._orbit(v, [g for g in self.gens
                                            if all(g[p] == p for p in path)])
                    if any(w in orbit for w in tried):
                        continue
                rest = [w for w in target if w != v]
                new_cells = (col_cells[:target_idx] + [[v], rest]
                             + col_cells[target_idx + 1:])
                path.append(v)
                ret = self._dfs(new_cells, row_cells, path, [[v]])
                path.pop()
                tried.append(v)
                if ret is not None and ret < depth:
                    return ret
            return None

    return RecursiveSearch(mat).run()


def min_weight_exhaustive(rows, q: int) -> int:
    """Minimum nonzero-codeword weight by scanning all q^k messages
    (plain mod-q arithmetic, prime q)."""
    g = np.array(rows, dtype=np.int64)
    k = g.shape[0]
    best = g.shape[1] + 1
    for msg in itertools.product(range(q), repeat=k):
        if not any(msg):
            continue
        word = (np.array(msg, dtype=np.int64) @ g) % q
        w = int((word != 0).sum())
        best = min(best, w)
    return best


@pytest.fixture(scope="session")
def worked_pair():
    """The worked ternary [6,3] example pair."""
    import codequiv as cq
    g1 = cq.GeneratorMatrix(3, [
        [1, 0, 0, 1, 2, 0],
        [0, 1, 0, 1, 1, 1],
        [0, 0, 1, 1, 1, 0],
    ])
    g2 = cq.GeneratorMatrix(3, [
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 2, 0],
        [0, 0, 1, 1, 0, 2],
    ])
    return g1, g2


# ---------------------------------------------------------------------------
# acceptance-criterion reporting: tests append (number, ok, detail) here and
# the terminal summary prints one line per criterion, pass or fail.

ACCEPTANCE_RESULTS: list = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {n}: {status} - {detail}")
