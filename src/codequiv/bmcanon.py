"""Canonical forms of column-colored binary matrices under column relabeling.

A ColoredBinaryMatrix is an R x C matrix of 0/1 entries with an integer color
on every column.  Column permutations that preserve column colors act on
matrices; rows are an unordered multiset.  Two matrices are isomorphic when
such a permutation maps the row multiset of one onto the other.

canonical_form() returns, for any input, a representative that is bit-for-bit
identical across isomorphic inputs, a column permutation realizing it, a
generating set for the automorphism group (all color-preserving column
permutations fixing the row multiset), and that group's exact order.

The canonical representative is the lexicographically least certificate --
the sorted list of row bits, with the columns read in leaf order -- taken
over the leaves of a deterministic search tree: iterated equitable
refinement of the column/row partitions, branching on the first largest
non-singleton column class, with subtrees that discovered automorphisms map
onto already-explored ones pruned away.  The tree is invariant under
relabeling, so the minimum is too.  The search starts from the column color
classes in increasing color order and refinement only splits cells in
place, so every leaf lists the column colors in the same sorted sequence,
and the certificate need not hold them.

is_isomorphic() builds no canonical form: it walks the first matrix's tree
to its first leaf, then the second's until a leaf of the same certificate
turns up.  The walk prunes only subtrees that a found automorphism maps onto
explored ones, and those hold leaves of the same certificates, so the
visited leaves show every certificate of the tree: a second walk that ends
with no hit proves the two non-isomorphic.  At worst it costs one first path
and one full search, against two full searches for two canonical forms.

Refinement splits a cell by its members' count vectors against the cells of
the other side, sub-cells in increasing vector order, until the partition is
equitable.  It is incremental: members of a cell already have equal counts
against every cell that existed when the cell was last made equitable, so
only the fragments split off since then can tell them apart, and the last
fragment of a split cell can be left out, its count being the old total
minus the others'.  Sorting by counts against just those fragments, in cell
order, orders every cell exactly as sorting by the full count vectors would,
so the tree is the one full recomputation would give.  The search stops
refining a node once its columns are discrete: the node is then a leaf, and
its certificate reads the column order alone, not the row cells.

A refinement step counts the members of every non-singleton cell against
all its splitters (the fragments, as index lists) at once, one way for
every step, however small.  A step whose only splitter is one index, as
the first row step below every branching is, splits each cell in two by
that index's row of the other side's bit matrix (the transpose in a row
step, the rows in a column step), read once as a bytes object.  Any other
step gathers those members' rows of the bit matrix at all the splitters'
indices with one NumPy index operation, and a member's key is its row of
counts as one bytes object: the gathered bits themselves when every
splitter is one index, else each splitter's block summed with
np.add.reduceat, one byte per count when every splitter has fewer than 256
indices and big-endian 4-byte words past that.  Keys of one step have one
width and compare as bytes exactly as the count tuples do.

The generators found below the i-th node of the first path fix the columns
individualized above it and generate their pointwise stabilizer, so the group
order is the product over that path of each individualized column's orbit
length under the generators fixing its predecessors.

Equal columns of equal color get no special treatment: the search
branches on each of them, so a row of m ones alone takes m(m+1)/2 nodes.
The matrices the library builds have none, as a hyperplane always separates
two distinct points and equiv.build_shortened keeps one column per point.

Bit convention: a matrix stores its rows once, as fixed-width byte
records (ColoredBinaryMatrix.packed): row i is ceil(C/8) bytes holding
column j at bit 7 - j % 8 of byte j // 8, zero-padded on the right, as
np.packbits packs a row of 0/1.  Records of one width compare as bytes
exactly as the rows read left to right as binary strings do, and so as the
int masks of `row_masks`, in which bit C-1-j holds column j.  It is the
package's one bit order: every constructor packs into it, projgeom's
incidence too, block by block, with no theta x theta array.

The search reads the rows as the matrix's R x C uint8 bit matrix
(ColoredBinaryMatrix.bits): the array the matrix was made from, as equiv's
shortened matrices keep their columns of the incidence, else one unpacked
from the records on first use and kept.  The columns are its transpose,
except that a symmetric matrix (projgeom's incidence) serves as its own.
The search never reads masks.  It writes the sorted row list of a
certificate as one byte string of records, each row's bits in the leaf's
column order packed as above.  Every record has the same width, so their
concatenations in sorted order compare exactly as the sorted row lists
do, and the search tree, its leaves and generators are those the rows
would give.  The same records check generators: a relabeling fixes the
row multiset exactly when it leaves the sorted records unchanged, those of
the identity being the matrix's own records, sorted.  The canonical form
keeps its certificate.  CanonResult.key() frames it with the column colors
and the row count as one bytes object, the key that classification
buckets and hashes, equal for two forms exactly when their serialize()
texts are; serialize() and CanonResult.serialize() render that text from
sorted records with one NumPy unpack (_render), and the canonical matrix
holds the certificate as its records, unpacked into its bits only when
read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import BudgetExceededError

# the canonical search's only bound: nodes visited per canonical_form call
NODE_BUDGET = 2_000_000


class ColoredBinaryMatrix:
    """Immutable binary matrix with column colors.

    The rows are stored once, as `packed`: a read-only R x ceil(C/8) uint8
    array of byte records (see module docstring for the bit order).
    Construct from nested 0/1 lists, from int masks via :meth:`from_masks`,
    or from a 0/1 array via :meth:`from_bits`.  `row_masks` reads the rows
    as ints; `bits` holds them as an R x C array, the one the matrix was
    made from, else unpacked on first use and kept.
    """

    __slots__ = ("n_rows", "n_cols", "col_colors", "packed", "_bits",
                 "_symmetric")

    def __init__(self, bits, col_colors=None, n_cols: int | None = None):
        bits = [list(r) for r in bits]
        if bits:
            width = len(bits[0])
            if n_cols is not None and n_cols != width:
                raise ValueError(f"n_cols={n_cols} but rows have {width} entries")
        elif n_cols is not None:
            width = n_cols
        elif col_colors is not None:
            width = len(col_colors)
        else:
            raise ValueError("cannot infer column count of an empty matrix")
        for r in bits:
            if len(r) != width:
                raise ValueError("ragged rows")
            for e in r:
                if e not in (0, 1) or not isinstance(e, Integral):
                    raise ValueError(f"entries must be 0/1, got {e!r}")
        array = np.array(bits, np.uint8).reshape(len(bits), width)
        self._init(np.packbits(array, axis=1), width, col_colors, False)

    def _init(self, packed, n_cols, col_colors, symmetric):
        """Rows `packed` (made read-only), shape and colors; no `bits` yet."""
        packed.flags.writeable = False
        self.packed = packed
        self.n_rows = packed.shape[0]
        self.n_cols = n_cols
        self.col_colors = tuple(col_colors) if col_colors is not None else (0,) * n_cols
        if len(self.col_colors) != n_cols:
            raise ValueError("col_colors length mismatch")
        self._bits = None
        # set where bits equal their transpose (projgeom.incidence), so the
        # search reads the rows as the columns too
        self._symmetric = symmetric

    @classmethod
    def _of(cls, packed: np.ndarray, n_cols: int, col_colors=None,
            symmetric: bool = False) -> "ColoredBinaryMatrix":
        """The matrix whose rows are the byte records `packed`, an
        R x ceil(n_cols/8) uint8 array with zero padding, kept as given;
        `symmetric` marks one whose bits equal their transpose."""
        self = cls.__new__(cls)
        self._init(packed, n_cols, col_colors, symmetric)
        return self

    @classmethod
    def from_masks(cls, masks, n_cols, col_colors=None) -> "ColoredBinaryMatrix":
        masks = tuple(masks)
        # m >> n_cols is 0 exactly when 0 <= m < 2**n_cols (-1 for m < 0)
        if any(m >> n_cols for m in masks):
            raise ValueError(f"a mask is negative or wider than {n_cols} columns")
        width = -(-n_cols // 8)
        pad = 8 * width - n_cols
        data = b"".join((m << pad).to_bytes(width, "big") for m in masks)
        return cls._of(_records(data, len(masks), n_cols), n_cols, col_colors)

    @classmethod
    def from_bits(cls, bits: np.ndarray,
                  col_colors=None) -> "ColoredBinaryMatrix":
        """The matrix of an R x C uint8 array of 0/1 entries, packed into
        its records at once and kept as its `bits` (made read-only)."""
        if bits.dtype != np.uint8 or bits.ndim != 2:
            raise ValueError("bits must be a 2-D uint8 array")
        if bits.size and bits.max() > 1:
            raise ValueError("entries must be 0/1")
        self = cls._of(np.packbits(bits, axis=1), bits.shape[1], col_colors)
        bits.flags.writeable = False
        self._bits = bits
        return self

    @property
    def row_masks(self) -> tuple[int, ...]:
        """The rows as int masks, bit C-1-j holding column j, read off
        `packed` on each call."""
        pad = 8 * self.packed.shape[1] - self.n_cols
        return tuple(int.from_bytes(row, "big") >> pad
                     for row in map(bytes, self.packed))

    @property
    def bits(self) -> np.ndarray:
        """The rows as a read-only R x C uint8 array of 0/1, unpacked from
        `packed` on first use and kept."""
        if self._bits is None:
            bits = np.unpackbits(self.packed, axis=1, count=self.n_cols)
            bits.flags.writeable = False
            self._bits = bits
        return self._bits

    def recolored(self, col_colors) -> "ColoredBinaryMatrix":
        """The same rows with column colors `col_colors`, sharing this
        matrix's `packed` and its `bits` (built here if need be)."""
        new = ColoredBinaryMatrix._of(self.packed, self.n_cols, col_colors,
                                      self._symmetric)
        new._bits = self.bits
        return new

    def entry(self, i: int, j: int) -> int:
        """The entry in row i, column j; IndexError unless 0 <= i < n_rows
        and 0 <= j < n_cols."""
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError(f"entry ({i}, {j}) is outside a "
                             f"{self.n_rows} x {self.n_cols} matrix")
        return int(self.packed[i, j // 8]) >> (7 - j % 8) & 1

    def to_lists(self) -> list[list[int]]:
        return self.bits.tolist()

    def row_multiset(self) -> tuple:
        return tuple(sorted(self.row_masks))

    def _state(self) -> tuple:
        return self.n_rows, self.n_cols, self.packed.tobytes(), self.col_colors

    def __eq__(self, other) -> bool:
        return (isinstance(other, ColoredBinaryMatrix)
                and self._state() == other._state())

    def __hash__(self) -> int:
        return hash(self._state())

    def __repr__(self) -> str:
        return (f"ColoredBinaryMatrix({self.n_rows}x{self.n_cols}, "
                f"col_colors={self.col_colors})")


def _perm_inverse(sigma) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv)


def permute_columns(mat: ColoredBinaryMatrix, gamma) -> ColoredBinaryMatrix:
    """Relabel columns: column j of `mat` becomes column gamma[j]."""
    if sorted(gamma) != list(range(mat.n_cols)):
        raise ValueError("gamma is not a permutation of the columns")
    inv = _perm_inverse(gamma)
    return ColoredBinaryMatrix.from_bits(
        mat.bits.take(np.array(inv, dtype=np.intp), 1),
        [mat.col_colors[j] for j in inv])


def is_automorphism(mat: ColoredBinaryMatrix, gamma) -> bool:
    """True when relabeling columns by `gamma` fixes colors and row multiset."""
    if sorted(gamma) != list(range(mat.n_cols)):
        return False
    return _maps_onto(mat, gamma, mat, _sorted_records(mat))


def serialize(mat: ColoredBinaryMatrix) -> str:
    """Frozen text form: column-color header, then the sorted rows.

    Line 1 is ``c <col colors space-separated>``; each following line is a
    row's bits as a 0/1 string, rows sorted by their bits (an empty line for
    each row of a matrix with no columns).  Serializations of canonical
    matrices render the texts that classification's keys
    (`CanonResult.key()` bytes) tell apart.  The rows are rendered from the
    matrix's byte records (`packed`), sorted, which sort as the rows' bits
    do; no bit matrix is built.
    """
    return _render(mat.col_colors, mat.n_rows, _sorted_records(mat))


def _records(data: bytes, n_rows: int, n_cols: int) -> np.ndarray:
    """The byte records `data` as a read-only n_rows x ceil(n_cols/8)
    uint8 array sharing their buffer."""
    return np.frombuffer(data, np.uint8).reshape(n_rows, -(-n_cols // 8))


def _sorted_records(mat: ColoredBinaryMatrix, order=None) -> bytes:
    """The sorted byte records of `mat`'s rows as one bytes object: its own
    records (`packed`), or with `order` given its rows read in that column
    order, packed from its bit matrix."""
    records = (mat.packed if order is None
               else np.packbits(mat.bits[:, order], axis=1))
    if not records.shape[1]:
        return b""  # lexsort needs a key; rows of no columns are empty
    return records[np.lexsort(records.T[::-1])].tobytes()


def _maps_onto(m1: ColoredBinaryMatrix, sigma, m2: ColoredBinaryMatrix,
               target: bytes) -> bool:
    """True when relabeling columns by the permutation `sigma` carries
    m1's column colors and row multiset onto m2's, whose sorted records
    are `target`."""
    inv = [0] * len(sigma)
    for j, t in enumerate(sigma):
        if m1.col_colors[j] != m2.col_colors[t]:
            return False
        inv[t] = j
    return _sorted_records(m1, inv) == target


def _render(col_colors, n_rows: int, data: bytes) -> str:
    """The `serialize` text of the sorted byte records `data`: unpacked at
    once into rows of "0"/"1" bytes, each ended by a newline."""
    C = len(col_colors)
    head = "c " + " ".join(map(str, col_colors))
    if not n_rows:
        return head
    text = np.empty((n_rows, C + 1), np.uint8)
    text[:, C] = ord("\n")
    np.add(np.unpackbits(_records(data, n_rows, C), axis=1, count=C),
           ord("0"), out=text[:, :C])
    return head + "\n" + text.tobytes()[:-1].decode()


@dataclass
class CanonResult:
    """Canonical form plus the search byproducts.

    `cert` holds the canonical matrix's n_rows rows as the sorted byte
    records of the module docstring, and `col_colors` its column colors in
    canonical order; `matrix` holds `cert` as its records, and `key()` and
    `serialize()` frame and render it directly.
    Invariants: ``permute_columns(input, perm)`` with rows re-sorted by
    their bits equals `matrix`; every generator passes is_automorphism;
    `group_order` is the exact order of the full automorphism group, which
    `generators` generate.  `nodes` counts the nodes the search visited.
    """
    cert: bytes
    n_rows: int
    col_colors: tuple[int, ...]
    perm: tuple[int, ...]
    generators: list[tuple[int, ...]]
    group_order: int
    nodes: int

    @cached_property
    def matrix(self) -> ColoredBinaryMatrix:
        C = len(self.col_colors)
        return ColoredBinaryMatrix._of(_records(self.cert, self.n_rows, C), C,
                                       self.col_colors)

    def key(self) -> bytes:
        """The canonical matrix as one bytes object, equal for two results
        of integer colors exactly when their `serialize()` texts are: b"c",
        the column and row counts as little-endian 8-byte words, each
        column color as a signed one (a color outside 64 bits raises
        struct.error), then `cert`.  The counts fix the length of the
        rest, so a key followed by any bytes parses one way, and no "dual:"
        or "min:" tag starts with "c": a tag and a key concatenated read
        back as that tag and that key."""
        C = len(self.col_colors)
        return struct.pack(f"<cQQ{C}q", b"c", C, self.n_rows,
                           *self.col_colors) + self.cert

    def serialize(self) -> str:
        """``serialize(self.matrix)``, rendered from `cert` (`_render`)."""
        return _render(self.col_colors, self.n_rows, self.cert)


def _color_classes(colors) -> list[list[int]]:
    classes: dict[int, list[int]] = {}
    for i, color in enumerate(colors):
        classes.setdefault(color, []).append(i)
    return [classes[color] for color in sorted(classes)]


class _Search:
    """One walk of a matrix's search tree; see module docstring for the
    scheme.  With `stop` given, the first leaf whose certificate makes
    `stop` true ends the walk, kept in `hit` as (certificate, leaf order).

    Refinement reads the bit matrix and its transpose, never the masks."""

    def __init__(self, mat: ColoredBinaryMatrix, stop=None):
        self.mat = mat
        self.C = mat.n_cols
        self.R = mat.n_rows
        # the columns as rows of the transposed bit matrix: a symmetric
        # matrix's rows, as they are
        self.bits_t = (mat.bits if mat._symmetric
                       else np.ascontiguousarray(mat.bits.T))
        self.nodes = 0
        # (cert, order, path) of the first leaf and of the least one so far
        self.first = None
        self.best = None
        self.gens: list[tuple[int, ...]] = []
        self.stop = stop
        self.hit = None

    @cached_property
    def identity(self) -> bytes:
        """The matrix's own sorted records, which a generator keeps."""
        return _sorted_records(self.mat)

    # -- partitions ---------------------------------------------------------

    def _initial_cells(self):
        """The columns grouped by color, in color order, each cell listing
        its members in index order, and all rows in one cell (none when
        there are no rows)."""
        return (_color_classes(self.mat.col_colors),
                [list(range(self.R))] if self.R else [])

    def _refine(self, col_cells, row_cells, splitters=None):
        """Equitable refinement; sub-cells are ordered by signature value so
        the refined partition depends only on the abstract structure.

        On entry every row cell has equal counts against each column cell
        except the ones given as `splitters` (column lists), and every column
        cell has equal counts against each row cell.  Each step then splits
        cells only by their counts against the fragments the other side's
        previous step created, bar the last fragment of each split cell,
        which orders them exactly as full signatures would (module
        docstring; McKay & Piperno, Practical graph isomorphism II, 2014).
        `splitters=None` marks the initial partition, which is equitable in
        neither direction: its first row step splits against every column
        cell and its first column step against every row cell.
        """
        for col_cells, row_cells in self._steps(col_cells, row_cells,
                                                splitters):
            pass
        return col_cells, row_cells

    def _steps(self, col_cells, row_cells, splitters):
        """The refinement of `_refine`, yielding (col_cells, row_cells)
        after each column step and once more at the end, when the partition
        is equitable.  `_dfs` stops drawing once the columns are discrete."""
        first = splitters is None
        if first:
            splitters = col_cells
        bits, bits_t = self.mat.bits, self.bits_t
        while True:
            row_cells, row_frags = self._split(row_cells, bits, bits_t,
                                               splitters)
            if first:
                row_frags = row_cells
            elif not row_frags:
                yield col_cells, row_cells
                return
            col_cells, splitters = self._split(col_cells, bits_t, bits,
                                               row_frags)
            yield col_cells, row_cells
            if not splitters:
                return
            first = False

    @staticmethod
    def _split(cells, bits, bits_t, splitters):
        """Split each cell by its members' counts against `splitters` (index
        lists), sub-cells in increasing count order.  A member x's count
        against a splitter is the number of the splitter's indices set in
        row x of the 0/1 matrix `bits`, whose transpose is `bits_t`.
        Returns the new cells and the new fragments bar the last of each
        split cell.

        When the only splitter is one index, each cell splits in two by its
        members' bits there, read off that index's row of `bits_t` as one
        bytes object.  Otherwise the step gathers the members' rows of
        `bits` at all the splitters' indices at once; a member's key is its
        row of counts as one bytes object, which compares exactly as its
        count tuple does (module docstring): the gathered bits themselves
        when every splitter is one index, else each splitter's block summed
        with np.add.reduceat, into one byte when every splitter has fewer
        than 256 indices and into big-endian 4-byte words otherwise.  A step
        in which no cell has two members, or with no splitters, splits
        nothing and returns at once."""
        members = [x for cell in cells if len(cell) > 1 for x in cell]
        if not members or not splitters:
            return cells, []
        keys = hits = None
        widest = max(map(len, splitters))
        if len(splitters) == 1 == widest:
            hits = bits_t[splitters[0][0]].tobytes()
        else:
            counts = bits.take(members, 0).take(
                [j for s in splitters for j in s], 1)
            if widest > 1:
                starts = [0]
                for s in splitters[:-1]:
                    starts.append(starts[-1] + len(s))
                counts = np.add.reduceat(
                    counts, starts, axis=1,
                    dtype=np.uint8 if widest < 256 else np.uint32)
                if widest >= 256:
                    counts = counts.astype(">u4")
            # each member's row of counts as one bytes object
            width = counts.shape[1] * counts.itemsize
            keys = iter(counts.view(f"V{width}")[:, 0].tolist())
        out = []
        frags = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            if hits is not None:
                # counts 0 and 1: the members with the bit clear come first
                zeros, ones = [], []
                for x in cell:
                    (ones if hits[x] else zeros).append(x)
                if zeros and ones:
                    out += (zeros, ones)
                    frags.append(zeros)
                else:
                    out.append(cell)
                continue
            buckets: dict = {}
            # zip draws from `cell` first, so it ends at the cell's last
            # member without taking the next cell's first key
            for x, key in zip(cell, keys):
                buckets.setdefault(key, []).append(x)
            if len(buckets) == 1:
                out.append(cell)
                continue
            ordered = sorted(buckets)
            for key in ordered:
                out.append(buckets[key])
            for key in ordered[:-1]:
                frags.append(buckets[key])
        return out, frags

    # -- leaves ---------------------------------------------------------------

    def _leaf_cert(self, col_cells):
        """(certificate, column order) of a leaf: the sorted row records
        with the columns read in leaf order (module docstring)."""
        order = [cell[0] for cell in col_cells]
        return _sorted_records(self.mat, order), order

    def _perm_between(self, from_order, to_order):
        """The column permutation carrying leaf order `from_order` onto
        `to_order`."""
        gamma = [0] * self.C
        for j, w in zip(from_order, to_order):
            gamma[j] = w
        return tuple(gamma)

    def _record_generator(self, gamma):
        if not _maps_onto(self.mat, gamma, self.mat, self.identity):
            raise RuntimeError("internal error: collision produced a non-automorphism")
        self.gens.append(gamma)

    def _handle_leaf(self, col_cells, path):
        cert, order = self._leaf_cert(col_cells)
        if self.stop is not None and self.stop(cert):
            self.hit = cert, order
            return -1
        if self.first is None:
            self.first = self.best = (cert, order, list(path))
            return None
        for ref_cert, ref_order, ref_path in (self.first, self.best):
            if cert == ref_cert:
                # maps the reference leaf's derivation onto this one
                self._record_generator(self._perm_between(ref_order, order))
                return next(t for t in range(len(path)) if path[t] != ref_path[t])
        if cert < self.best[0]:
            self.best = (cert, order, list(path))
        return None

    # -- tree -----------------------------------------------------------------

    @staticmethod
    def _orbit(v, gens) -> set[int]:
        """The orbit of column `v` under the group generated by `gens`."""
        orbit = {v}
        frontier = [v]
        while frontier:
            w = frontier.pop()
            for g in gens:
                x = g[w]
                if x not in orbit:
                    orbit.add(x)
                    frontier.append(x)
        return orbit

    def _group_order(self) -> int:
        """Orbit-length product along the first path (module docstring;
        McKay & Piperno, Practical graph isomorphism II, 2014)."""
        order = 1
        gens = self.gens
        for v in self.first[2]:
            order *= len(self._orbit(v, gens))
            gens = [g for g in gens if g[v] == v]
        return order

    def _children(self, col_cells, row_cells, target_idx, tried, path):
        """(column, unrefined cells and splitters) of each child of the node
        at `path`, columns of its target cell in increasing order.  On the
        first path a column is skipped when the generators fixing `path`
        join it to one in `tried`, the columns explored so far; their orbits
        are computed once per node, and again only after a new generator."""
        on_first_path = (self.first is None
                         or path == self.first[2][:len(path)])
        target = col_cells[target_idx]
        # {column: a label of its orbit} under `gens`, the generators fixing
        # `path`, filled as columns are asked for; both are built anew only
        # when a generator has been found since
        gens: list[tuple[int, ...]] = []
        known = 0
        orbit_of: dict[int, int] = {}

        def orbit(w):
            if w not in orbit_of:
                for x in self._orbit(w, gens):
                    orbit_of[x] = w
            return orbit_of[w]

        for v in sorted(target):
            if tried and on_first_path:
                if known != len(self.gens):
                    known = len(self.gens)
                    gens = [g for g in self.gens
                            if all(g[p] == p for p in path)]
                    orbit_of.clear()
                if orbit(v) in {orbit(w) for w in tried}:
                    continue
            rest = [w for w in target if w != v]
            # the rest of the target cell is its last fragment
            yield v, (col_cells[:target_idx] + [[v], rest]
                      + col_cells[target_idx + 1:], row_cells, [[v]])

    def _dfs(self, col_cells, row_cells):
        """Walk the search tree depth first, as a loop over a stack with one
        (tried, children) frame per open node, so that only the node budget
        bounds its depth.  A leaf that yields a generator returns the depth
        at which its path leaves the first or best path, and every open
        node below that depth is closed; a leaf that ends the walk (`stop`)
        returns -1, which closes them all."""
        path: list[int] = []
        stack: list[tuple] = []
        node = (col_cells, row_cells, None)
        while True:
            self.nodes += 1
            if self.nodes > NODE_BUDGET:
                raise BudgetExceededError(
                    f"canonical-form search exceeded {NODE_BUDGET} nodes")
            col_cells, row_cells, splitters = node
            if len(col_cells) < self.C:
                # at discrete columns the node is a leaf, whose certificate
                # reads the column order alone: refinement stops there
                for col_cells, row_cells in self._steps(
                        col_cells, row_cells, splitters):
                    if len(col_cells) == self.C:
                        break
            # the first largest cell
            target_idx = max(range(len(col_cells)),
                             key=lambda t: len(col_cells[t]))
            ret = None
            if len(col_cells[target_idx]) == 1:
                ret = self._handle_leaf(col_cells, path)
            else:
                tried: list[int] = []
                stack.append((tried, self._children(
                    col_cells, row_cells, target_idx, tried, path)))
            while stack:
                tried, children = stack[-1]
                if len(path) == len(stack):
                    # back from a child of the node at depth len(stack) - 1
                    tried.append(path.pop())
                    if ret is not None and ret < len(stack) - 1:
                        stack.pop()
                        continue
                v, node = next(children, (None, None))
                if node is not None:
                    break
                stack.pop()
                ret = None
            else:
                return
            path.append(v)

    def walk(self):
        """Walk the tree from the root; returns `hit`."""
        self._dfs(*self._initial_cells())
        return self.hit

    def run(self) -> CanonResult:
        if self.C == 0:
            return CanonResult(b"", self.R, (), (), [], 1, 0)
        self.walk()
        cert, order, _ = self.best
        colors = self.mat.col_colors
        return CanonResult(cert, self.R, tuple([colors[j] for j in order]),
                           _perm_inverse(order), self.gens,
                           self._group_order(), self.nodes)


def canonical_form(mat: ColoredBinaryMatrix) -> CanonResult:
    """Canonicalize `mat`; raises BudgetExceededError past NODE_BUDGET
    nodes, the search's only bound."""
    return _Search(mat).run()


def is_isomorphic(m1: ColoredBinaryMatrix, m2: ColoredBinaryMatrix):
    """Column permutation sigma mapping m1 onto m2 (j -> sigma[j]), or None.

    Quick shape/color-multiset rejections come first.  Then m1's search
    walks to its first leaf alone, and m2's searches its whole tree for a
    leaf of the same certificate, stopping at the first (McKay & Piperno,
    Practical graph isomorphism II, 2014, as nauty's isomorphism mode does);
    sigma carries m1's leaf order onto that leaf's.  The trees are
    invariant under relabeling, so when m1 and m2 are isomorphic m2's tree
    holds a leaf of that certificate.  The walk prunes only subtrees that a
    found automorphism maps onto ones it has explored (the orbits on the
    first path, the jump back at a leaf equal to the first or least one),
    and such an image holds leaves of the same certificates, so every
    certificate of the tree shows at a visited leaf: a walk that ends with
    no hit proves m1 and m2 non-isomorphic.  At worst this costs m1's first
    path plus m2's full search, never more than canonical_form of both.
    """
    if (m1.n_rows != m2.n_rows or m1.n_cols != m2.n_cols
            or sorted(m1.col_colors) != sorted(m2.col_colors)):
        return None
    if not m1.n_cols:
        return ()
    s1 = _Search(m1, stop=lambda cert: True)
    cert, order1 = s1.walk()
    s2 = _Search(m2, stop=cert.__eq__)
    hit = s2.walk()
    if hit is None:
        return None
    sigma = s1._perm_between(order1, hit[1])
    if not _maps_onto(m1, sigma, m2, s2.identity):
        raise RuntimeError("internal error: equal certificates gave a map "
                           "that is not an isomorphism")
    return sigma


def _sigma_from_canons(r1: CanonResult, r2: CanonResult):
    """The column map j -> sigma[j] carrying the input of `r1` onto that of
    `r2`, or None when their canonical matrices differ: their records,
    rows or column colors."""
    if (r1.cert, r1.n_rows, r1.col_colors) != (r2.cert, r2.n_rows,
                                               r2.col_colors):
        return None
    inv2 = _perm_inverse(r2.perm)
    return tuple(inv2[t] for t in r1.perm)
