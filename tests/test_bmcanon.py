"""Canonical labeling of colored binary matrices: invariance, isomorphism
decisions, and exact automorphism group orders, all against brute force."""

import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import codequiv
from codequiv import (ColoredBinaryMatrix, GeneratorMatrix,
                      build_ceimpg_matrix, build_shortened, canonical_form,
                      characteristic_vector, code_aut_group, incidence,
                      is_automorphism, is_isomorphic, permute_columns,
                      random_code, serialize, simplex_generator)
from codequiv import bmcanon
from codequiv.bmcanon import _Search
from codequiv.errors import BudgetExceededError
from conftest import (_moved_rows, brute_force_cbm_aut_count,
                      brute_force_cbm_isomorphic, iter_group,
                      recursive_search, reference_is_automorphism, reference_leaf_cert,
                      reference_pack_rows, reference_record_masks,
                      reference_refine, reference_serialize, systematic_code)


def _random_cbm(rng, rows, cols, n_col_colors=1):
    bits = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
    cc = [rng.randrange(n_col_colors) for _ in range(cols)]
    return ColoredBinaryMatrix(bits, cc)


def _relabel(mat, rng):
    """A random column permutation (colors travel along) plus row shuffle."""
    gamma = list(range(mat.n_cols))
    rng.shuffle(gamma)
    moved = permute_columns(mat, gamma)
    rows = list(moved.row_masks)
    rng.shuffle(rows)
    return ColoredBinaryMatrix.from_masks(rows, mat.n_cols, moved.col_colors)


def test_construction_and_entry_access():
    m = ColoredBinaryMatrix([[1, 0, 1], [0, 1, 1]], [1, 2, 3])
    assert m.row_masks == (0b101, 0b011)
    assert m.entry(0, 0) == 1 and m.entry(0, 1) == 0 and m.entry(1, 2) == 1
    assert m.to_lists() == [[1, 0, 1], [0, 1, 1]]
    with pytest.raises(ValueError):
        ColoredBinaryMatrix([[1, 2]])
    with pytest.raises(ValueError):
        ColoredBinaryMatrix([[1], [0, 1]])


def test_entry_refuses_indices_out_of_range():
    """entry(i, j) reads only cells of the matrix: a negative index, or one
    past the last row or column, raises IndexError instead of reading
    another cell or the padding."""
    m = ColoredBinaryMatrix([[1, 0, 1]])
    assert [m.entry(0, j) for j in range(3)] == [1, 0, 1]
    for i, j in ((0, -1), (0, 3), (-1, 0), (1, 0), (0, 8), (0, 100)):
        with pytest.raises(IndexError):
            m.entry(i, j)
    with pytest.raises(IndexError):
        ColoredBinaryMatrix([], n_cols=2).entry(0, 0)


def test_non_integer_entries_refused():
    for bad in (1.0, 0.0, 0.5):
        with pytest.raises(ValueError, match="0/1"):
            ColoredBinaryMatrix([[bad, 0]])
    m = ColoredBinaryMatrix([[True, np.int64(0), np.uint8(1)]])
    assert m.row_masks == (0b101,) and type(m.row_masks[0]) is int


def test_from_masks_rejects_a_mask_wider_than_n_cols():
    with pytest.raises(ValueError):
        ColoredBinaryMatrix.from_masks([0b100, 0b01], 2)
    assert ColoredBinaryMatrix.from_masks([0b11, 0b01], 2).to_lists() == [
        [1, 1], [0, 1]]


def test_bits_hold_the_masks_rows():
    """`bits` unpacks the records once, read-only; from_bits keeps the
    array it packs, and refuses anything but a 2-D uint8 array of 0/1;
    recolored shares records and bits."""
    m = ColoredBinaryMatrix([[1, 0, 1], [0, 1, 1]], [1, 2, 3])
    assert m.bits.tolist() == [[1, 0, 1], [0, 1, 1]]
    assert m.bits is m.bits and not m.bits.flags.writeable
    bits = np.array([[1, 0, 1], [0, 1, 1]], np.uint8)
    again = ColoredBinaryMatrix.from_bits(bits, [1, 2, 3])
    assert again == m and again.bits is bits
    for bad in (np.array([[2, 0]], np.uint8), np.array([[1, 0]]),
                np.array([1, 0], np.uint8)):
        with pytest.raises(ValueError):
            ColoredBinaryMatrix.from_bits(bad)
    other = m.recolored([0, 0, 0])
    assert other.row_masks == m.row_masks and other.bits is m.bits
    assert other.packed is m.packed
    assert other.col_colors == (0, 0, 0)


@pytest.mark.parametrize("rows,cols", [(0, 5), (5, 0), (7, 9), (3, 64),
                                       (4, 65)])
def test_from_bits_packs_its_masks_when_read(rows, cols):
    """from_bits(b) equals the list-built matrix of b, hashes as it does,
    and packs b into its byte records at once, read-only: the records hold
    the reference packer's masks (conftest), and `row_masks`, read off the
    records on each call, gives them; equality, recoloring, relabeling and
    serialization see those records."""
    rng = random.Random(100 * rows + cols)
    b = np.array([rng.randrange(2) for _ in range(rows * cols)],
                 np.uint8).reshape(rows, cols)
    colors = [rng.randrange(3) for _ in range(cols)]
    want = ColoredBinaryMatrix(b.tolist(), colors, n_cols=cols)
    gamma = rng.sample(range(cols), cols)

    def fresh():
        return ColoredBinaryMatrix.from_bits(b.copy(), colors)

    m = fresh()
    assert m.packed.shape == (rows, -(-cols // 8))
    assert not m.packed.flags.writeable
    assert reference_record_masks(m.packed.tobytes(), rows,
                                  cols) == reference_pack_rows(b)
    assert m == want and hash(m) == hash(want)
    assert m.row_masks == tuple(reference_pack_rows(b)) == m.row_masks
    assert fresh().recolored(colors[::-1]) == want.recolored(colors[::-1])
    assert permute_columns(fresh(), gamma) == permute_columns(want, gamma)
    assert serialize(fresh()) == serialize(want)


def test_searches_pack_no_masks(monkeypatch):
    """A canonical form and an isomorphism search of matrices made from
    bits, small or large, read the bits alone and read no row masks; they
    find what the same rows made from masks give."""
    reads, masks = [], ColoredBinaryMatrix.row_masks
    monkeypatch.setattr(ColoredBinaryMatrix, "row_masks", property(
        lambda m: reads.append(m) or masks.fget(m)))
    for q, n, k in ((3, 10, 3), (2, 40, 6)):
        codes = [random_code(q, n, k, seed=s) for s in (0, 1)]
        m1, m2 = (build_shortened(code) for code in codes)
        twin1, twin2 = (ColoredBinaryMatrix.from_masks(
            reference_pack_rows(m.bits), m.n_cols, m.col_colors)
            for m in (m1, m2))
        assert twin1 == m1 and twin2 == m2
        r, want = canonical_form(m1), canonical_form(twin1)
        assert (r.cert, r.perm, r.generators, r.group_order, r.nodes) == (
            want.cert, want.perm, want.generators, want.group_order,
            want.nodes)
        assert is_isomorphic(m2, m2) == is_isomorphic(twin2, twin2)
        assert is_isomorphic(m1, m2) == is_isomorphic(twin1, twin2)
        assert reads == []


def test_from_masks_rejects_a_negative_mask():
    with pytest.raises(ValueError):
        ColoredBinaryMatrix.from_masks([0b01, -1], 2)


@pytest.mark.parametrize("rows,cols", [(5, 3), (9, 17), (1, 8), (0, 4), (4, 0)])
def test_pack_rows_and_column_masks_in_the_module_bit_order(rows, cols):
    """Byte records packed from any nonzero entries, as projgeom.incidence
    packs the dot kernel's blocks (`ColoredBinaryMatrix._of`), give the
    masks of the reference packer (conftest), column j at bit cols-1-j, as
    the list constructor and from_bits do; packed from the transpose, the
    column masks hold row i at bit rows-1-i."""
    rng = random.Random(31 * rows + cols)
    values = np.array([rng.randrange(3) for _ in range(rows * cols)],
                      dtype=np.uint8).reshape(rows, cols)
    bits = (values != 0).astype(np.uint8)
    for v, b, width in ((values, bits, cols), (values.T, bits.T, len(bits))):
        packed = ColoredBinaryMatrix._of(np.packbits(v, axis=1), width)
        want = reference_pack_rows(v)
        assert list(packed.row_masks) == want == list(
            ColoredBinaryMatrix(b.tolist(), n_cols=width).row_masks)
        assert list(ColoredBinaryMatrix.from_bits(
            np.ascontiguousarray(b)).row_masks) == want


@pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 64, 65])
def test_row_formats_round_trip(cols):
    """The list, from_masks and from_bits constructors give equal matrices
    with equal hashes, for no rows, one row and several: their records
    hold the reference masks, and `row_masks`, `bits`, `to_lists` and
    `entry` agree; a canonical form's matrix holds its certificate as its
    records."""
    rng = random.Random(700 + cols)
    for rows in (0, 1, 2, 13):
        lists = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        colors = [rng.randrange(3) for _ in range(cols)]
        masks = reference_pack_rows(lists)
        made = [ColoredBinaryMatrix(lists, colors, n_cols=cols),
                ColoredBinaryMatrix.from_masks(masks, cols, colors),
                ColoredBinaryMatrix.from_bits(
                    np.array(lists, np.uint8).reshape(rows, cols), colors)]
        for m in made:
            assert m == made[0] and hash(m) == hash(made[0])
            assert m.packed.shape == (rows, -(-cols // 8))
            assert reference_record_masks(m.packed.tobytes(), rows,
                                          cols) == masks
            assert list(m.row_masks) == masks
            assert m.bits.shape == (rows, cols) and m.bits.tolist() == lists
            assert m.to_lists() == lists == [
                [m.entry(i, j) for j in range(cols)] for i in range(rows)]
        res = canonical_form(made[0])
        assert res.matrix.packed.tobytes() == res.cert
        assert res.matrix.n_rows == rows and res.matrix.n_cols == cols


def test_list_constructor_rejects_n_cols_unlike_the_rows():
    with pytest.raises(ValueError):
        ColoredBinaryMatrix([[1, 0]], n_cols=5)
    assert ColoredBinaryMatrix([[1, 0]], n_cols=2).n_cols == 2
    assert ColoredBinaryMatrix([], n_cols=5).n_cols == 5


def test_permute_columns_hand_case():
    m = ColoredBinaryMatrix([[1, 1, 0]], col_colors=[9, 8, 7])
    # send column 0 to position 2, 1 to 0, 2 to 1
    moved = permute_columns(m, [2, 0, 1])
    assert moved.to_lists() == [[1, 0, 1]]
    assert moved.col_colors == (8, 7, 9)
    with pytest.raises(ValueError):
        permute_columns(m, [0, 0, 1])


def test_serialize_format_exact():
    m = ColoredBinaryMatrix([[1, 0], [0, 1]], [3, 4])
    # rows are listed sorted by their bits; column colors head the text
    assert serialize(m) == "c 3 4\n01\n10"
    assert serialize(ColoredBinaryMatrix([[], []], n_cols=0)) == "c \n\n"


@pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 63, 64, 65, 130])
def test_serialize_and_permute_match_the_mask_references(cols):
    """serialize() renders a matrix's sorted byte records, and
    permute_columns gathers its bit columns: on seeded matrices of no rows,
    one row and repeated rows, made from masks and from bits, the text is
    the old mask renderer's (conftest), and the relabeled rows are the
    reference's, with the colors moved along."""
    rng = random.Random(500 + cols)
    for rows, repeat in ((0, False), (1, False), (6, True), (20, True)):
        for _ in range(3):
            m = _shaped_cbm(rng, rows, cols, repeat)
            from_bits = ColoredBinaryMatrix.from_bits(
                np.array(m.bits), m.col_colors)
            assert serialize(m) == serialize(from_bits) == \
                reference_serialize(m)
            gamma = list(range(cols))
            rng.shuffle(gamma)
            moved = permute_columns(m, gamma)
            assert tuple(sorted(moved.row_masks)) == _moved_rows(m, gamma)
            assert all(moved.col_colors[t] == m.col_colors[j]
                       for j, t in enumerate(gamma))


def _shaped_cbm(rng, rows, cols, repeat):
    """A seeded `rows` x `cols` matrix of up to three column colors; with
    `repeat`, its first row recurs at random places."""
    masks = [rng.getrandbits(cols) for _ in range(rows)]
    if repeat:
        for i in rng.sample(range(1, rows), rows // 3):
            masks[i] = masks[0]
    return ColoredBinaryMatrix.from_masks(
        masks, cols, [rng.randrange(3) for _ in range(cols)])


@pytest.mark.parametrize("cols", [1, 7, 8, 9, 16, 17, 64, 65, 130])
def test_keys_render_from_certificate_bytes(cols):
    """A CanonResult's key text, rendered from its certificate bytes,
    equals serialize() of its canonical matrix, and reading it decodes no
    matrix; the matrix decoded when first read equals the input relabeled
    by `perm` with its rows sorted, at record widths of 1 to 8 bytes with
    and without padding, for no rows, one row and repeated rows."""
    rng = random.Random(cols)
    for rows, repeat in ((0, False), (1, False), (9, True), (20, True)):
        for _ in range(4):
            m = _shaped_cbm(rng, rows, cols, repeat)
            res = canonical_form(m)
            key = res.serialize()
            assert "matrix" not in vars(res)
            moved = permute_columns(m, res.perm)
            eager = ColoredBinaryMatrix.from_masks(
                sorted(moved.row_masks), cols, moved.col_colors)
            assert res.matrix == eager
            assert key == serialize(res.matrix) == serialize(eager)
    for rows in (0, 1, 3):
        res = canonical_form(ColoredBinaryMatrix([[]] * rows, n_cols=0))
        assert res.serialize() == serialize(res.matrix) == "c " + "\n" * rows


def test_sigma_from_canons_agrees_with_matrix_equality():
    """_sigma_from_canons compares certificate bytes, row counts and colors:
    it maps exactly when the canonical matrices are equal, over relabeled
    copies, same-shape pairs that differ only in colors or only in bits,
    widths one column apart, and column-less matrices of other row
    counts; a map it gives carries the first input onto the second."""
    rng = random.Random(8)
    pairs = []
    for cols in (1, 7, 8, 9, 16, 17, 64):
        for rows, repeat in ((1, False), (9, True), (20, True)):
            m = _shaped_cbm(rng, rows, cols, repeat)
            recolored = ColoredBinaryMatrix.from_masks(
                m.row_masks, cols, [(c + 1) % 3 for c in m.col_colors])
            flipped = ColoredBinaryMatrix.from_masks(
                [m.row_masks[0] ^ 1] + list(m.row_masks[1:]), cols,
                m.col_colors)
            # the same records, with one more all-zero column
            wider = ColoredBinaryMatrix.from_masks(
                [r << 1 for r in m.row_masks], cols + 1, m.col_colors + (0,))
            pairs += [(m, _relabel(m, rng)), (m, recolored), (m, flipped),
                      (m, wider), (m, _shaped_cbm(rng, rows, cols, repeat))]
    for rows in (1, 2):
        pairs.append((ColoredBinaryMatrix([[]] * rows, n_cols=0),
                      ColoredBinaryMatrix([[]] * 2, n_cols=0)))
    seen = set()
    for m1, m2 in pairs:
        r1, r2 = canonical_form(m1), canonical_form(m2)
        sigma = bmcanon._sigma_from_canons(r1, r2)
        same = r1.matrix == r2.matrix
        seen.add(same)
        assert (sigma is not None) == same
        if same:
            moved = permute_columns(m1, sigma)
            assert moved.row_multiset() == m2.row_multiset()
            assert moved.col_colors == m2.col_colors
    assert seen == {True, False}


def test_is_automorphism_hand_case():
    # swapping the two identical columns fixes the matrix
    m = ColoredBinaryMatrix([[1, 1, 0], [0, 0, 1]])
    assert is_automorphism(m, [1, 0, 2])
    assert not is_automorphism(m, [2, 1, 0])
    # color mismatch blocks an otherwise fine swap
    mc = ColoredBinaryMatrix([[1, 1, 0], [0, 0, 1]], col_colors=[1, 2, 1])
    assert not is_automorphism(mc, [1, 0, 2])


@pytest.mark.parametrize("colors", [1, 2, 3],
                         ids=["colors0", "colors1", "colors2"])
def test_canonical_invariance_under_relabeling(colors):
    rng = random.Random(colors)
    for trial in range(12):
        base = _random_cbm(rng, rng.randrange(1, 7), rng.randrange(1, 7),
                           colors)
        want = serialize(canonical_form(base).matrix)
        for _ in range(8):
            assert serialize(canonical_form(_relabel(base, rng)).matrix) == want


def test_canonical_perm_realizes_canonical_matrix():
    rng = random.Random(5)
    for _ in range(25):
        m = _random_cbm(rng, rng.randrange(1, 6), rng.randrange(1, 7), 2)
        res = canonical_form(m)
        moved = permute_columns(m, res.perm)
        assert moved.row_multiset() == res.matrix.row_multiset()
        assert moved.col_colors == res.matrix.col_colors
        for g in res.generators:
            assert is_automorphism(m, g)


def _uneven_cbm(rng):
    """Random colored matrix whose columns have uneven densities, so the
    color classes are far from equitable."""
    n_rows, n_cols = rng.randrange(2, 25), rng.randrange(2, 16)
    density = [rng.random() for _ in range(n_cols)]
    bits = [[int(rng.random() < d) for d in density] for _ in range(n_rows)]
    n_cc = rng.randint(1, 3)
    return ColoredBinaryMatrix(bits, [rng.randrange(n_cc) for _ in range(n_cols)])


def _refine_down(m, rng, depth):
    """Refine `m` from the root, then individualize a random column of a
    non-singleton cell and refine again, up to `depth` times or until the
    columns are discrete, checking every refinement against full
    recomputation (`reference_refine`)."""
    search = _Search(m)
    col_cells, row_cells = search._initial_cells()
    splitters = None
    for _ in range(depth):
        want = reference_refine(m, col_cells, row_cells)
        col_cells, row_cells = search._refine(col_cells, row_cells, splitters)
        assert (col_cells, row_cells) == want
        wide = [t for t, cell in enumerate(col_cells) if len(cell) > 1]
        if not wide:
            return
        t = rng.choice(wide)
        v = rng.choice(col_cells[t])
        col_cells = (col_cells[:t] + [[v], [w for w in col_cells[t] if w != v]]
                     + col_cells[t + 1:])
        splitters = [[v]]


@pytest.mark.parametrize("seed, uneven", [(2024, 500), (2025, 200)],
                         ids=["2024", "2025"])
def test_refinement_matches_full_recompute(seed, uneven):
    # the root refinement and three individualize-and-refine steps below it
    # give exactly the ordered cells of full-signature refinement
    # (`_refine_down`), on `uneven` uneven matrices; then down to discrete
    # columns on the high-symmetry shortened matrices of the six points of
    # PG(1,5) and the seven of PG(2,2), where every step has a handful of
    # members
    rng = random.Random(seed)
    for _ in range(uneven):
        _refine_down(_uneven_cbm(rng), rng, 4)
    for q, k in ((5, 2), (2, 3)):
        m = build_shortened(GeneratorMatrix(q, simplex_generator(k, q).rows))
        assert m.n_cols == m.n_rows == (q ** k - 1) // (q - 1)
        for _ in range(20):
            _refine_down(m, rng, m.n_cols)


def test_numpy_count_keys_order_counts_past_one_byte():
    # 600 rows, each with a single 1, in columns of 300, 200 and 100 ones:
    # the root's column step counts the columns against the one row cell,
    # and the counts' low bytes (44, 200, 100) order them otherwise than
    # the counts do, as a one-byte key (or a uint8 sum) would
    weights = (300, 200, 100)
    rows = [j for j, w in enumerate(weights) for _ in range(w)]
    random.Random(600).shuffle(rows)
    m = ColoredBinaryMatrix([[int(j == c) for j in range(3)] for c in rows])
    assert sorted(weights) != sorted(weights, key=lambda w: w % 256)
    search = _Search(m)
    col_cells, row_cells = search._initial_cells()
    got = search._refine(col_cells, row_cells)
    assert got == reference_refine(m, col_cells, row_cells)
    assert got[0] == [[2], [1], [0]]


def test_initial_cells_match_per_color_scan():
    # the columns grouped by color, in color order, members in index order,
    # as one scan of the columns per distinct color gives them; the rows in
    # one cell, or in none when there are no rows
    rng = random.Random(5150)
    for _ in range(300):
        n_rows, n_cols = rng.randrange(0, 80), rng.randrange(1, 24)
        spread = rng.randint(1, n_cols)
        bits = [[rng.randrange(2) for _ in range(n_cols)] for _ in range(n_rows)]
        m = ColoredBinaryMatrix(
            bits, [rng.randrange(-spread, spread) for _ in range(n_cols)])
        want_cols = [[j for j in range(n_cols) if m.col_colors[j] == c]
                     for c in sorted(set(m.col_colors))]
        want_rows = [list(range(n_rows))] if n_rows else []
        assert _Search(m)._initial_cells() == (want_cols, want_rows)


def test_canonical_invariance_on_uneven_colored_matrices():
    # uneven matrices, then ones with many equal columns
    rng = random.Random(4048)
    for t in range(700):
        m = _uneven_cbm(rng) if t < 500 else _equal_columns_cbm(rng)
        gamma = list(range(m.n_cols))
        rng.shuffle(gamma)
        assert (canonical_form(m).matrix
                == canonical_form(permute_columns(m, gamma)).matrix)


def _cert_cases():
    """513 seeded matrices: widths around byte boundaries, 0 and 1 rows
    included (fewer with up to 2 rows, whose large groups make slow
    searches)."""
    rng = random.Random(5150)
    for n_cols in (1, 7, 8, 9, 16, 17, 63, 64, 65):
        for n_rows in (0, 1, 2, 5, 12, 20, 30):
            for _ in range(3 if n_rows < 3 else 12):
                density = [rng.choice((0.0, 0.2, 0.5, 1.0)) for _ in range(n_cols)]
                masks = [sum(int(rng.random() < d) << (n_cols - 1 - j)
                             for j, d in enumerate(density))
                         for _ in range(n_rows)]
                yield ColoredBinaryMatrix.from_masks(
                    masks, n_cols, [rng.randrange(2) for _ in range(n_cols)])


def _order_cert(search, order):
    return search._leaf_cert([[j] for j in order])[0]


def test_leaf_certificates_compare_like_reference_pairs():
    # a certificate is the sorted records alone, which decode to the
    # reference's sorted rows and compare as they do; the column colors
    # need no comparing, every leaf listing them in sorted order
    # (test_canonical_matrix_and_generators_match_reference)
    rng = random.Random(61)
    for m in _cert_cases():
        search = _Search(m)
        orders = []
        for _ in range(4):
            order = list(range(m.n_cols))
            rng.shuffle(order)
            orders.append(order)
        # a swap of two columns, often equal ones, gives an equal certificate
        swapped = list(orders[0])
        t, u = rng.randrange(m.n_cols), rng.randrange(m.n_cols)
        swapped[t], swapped[u] = swapped[u], swapped[t]
        orders.append(swapped)
        certs = [_order_cert(search, o) for o in orders]
        refs = [reference_leaf_cert(m, o) for o in orders]
        for cert, (_, rows) in zip(certs, refs):
            assert tuple(reference_record_masks(cert, m.n_rows,
                                                m.n_cols)) == rows
        for a in range(len(orders)):
            for b in range(len(orders)):
                assert (certs[a] == certs[b]) == (refs[a][1] == refs[b][1])
                assert (certs[a] < certs[b]) == (refs[a][1] < refs[b][1])


def test_canonical_matrix_and_generators_match_reference():
    rng = random.Random(62)
    for m in _cert_cases():
        res = canonical_form(m)
        order = [0] * m.n_cols
        for j, t in enumerate(res.perm):
            order[t] = j
        col_colors, rows = reference_leaf_cert(m, order)
        assert col_colors == tuple(sorted(m.col_colors))
        assert res.matrix == ColoredBinaryMatrix.from_masks(
            rows, m.n_cols, col_colors)
        for g in res.generators:
            assert reference_is_automorphism(m, g)
            assert is_automorphism(m, g)
        for _ in range(3):
            gamma = list(range(m.n_cols))
            rng.shuffle(gamma)
            assert is_automorphism(m, gamma) == reference_is_automorphism(m, gamma)


def test_is_isomorphic_agrees_with_canonical_forms():
    """is_isomorphic finds a map exactly when the two canonical forms are
    equal, on 3,000 seeded matrices with 1-3 column colors: relabeled
    copies, relabeled copies with one bit flipped, independent draws of the
    same shape, and a tenth with no rows.  Every map returned carries the
    first matrix onto the second."""
    rng = random.Random(30)
    isomorphic = 0
    for trial in range(3000):
        rows = 0 if trial % 10 == 0 else rng.randrange(1, 9)
        cols = rng.randrange(1, 9)
        m1 = _random_cbm(rng, rows, cols, 1 + trial % 3)
        kind = trial // 3 % 3
        if kind == 0:
            m2 = _random_cbm(rng, rows, cols, 1 + trial % 3)
        else:
            m2 = _relabel(m1, rng)
            if kind == 2 and rows:
                masks = list(m2.row_masks)
                masks[rng.randrange(rows)] ^= 1 << rng.randrange(cols)
                m2 = ColoredBinaryMatrix.from_masks(masks, cols, m2.col_colors)
        want = canonical_form(m1).matrix == canonical_form(m2).matrix
        got = is_isomorphic(m1, m2)
        assert (got is not None) == want, trial
        if got is not None:
            moved = permute_columns(m1, got)
            assert moved.row_multiset() == m2.row_multiset()
            assert moved.col_colors == m2.col_colors
            isomorphic += 1
    assert 1000 < isomorphic < 2000


def test_isomorphism_matches_brute_force():
    rng = random.Random(31)
    agree = 0
    for trial in range(60):
        cols = rng.randrange(1, 7)
        m1 = _random_cbm(rng, rng.randrange(1, 6), cols, 2)
        if trial % 2 == 0:
            m2 = _relabel(m1, rng)  # force isomorphic half the time
        else:
            m2 = _random_cbm(rng, m1.n_rows, cols, 2)
        want = brute_force_cbm_isomorphic(m1, m2) is not None
        got = is_isomorphic(m1, m2)
        assert (got is not None) == want
        if got is not None:
            # returned column map really carries m1 onto m2
            moved = permute_columns(m1, got)
            assert moved.row_multiset() == m2.row_multiset()
            assert moved.col_colors == m2.col_colors
        agree += 1
    assert agree == 60


def test_group_order_matches_brute_force():
    rng = random.Random(77)
    for _ in range(40):
        m = _random_cbm(rng, rng.randrange(1, 6), rng.randrange(1, 8), 2)
        assert canonical_form(m).group_order == brute_force_cbm_aut_count(m)


def test_group_order_matches_brute_force_with_equal_columns():
    # on matrices with many equal columns the order equals the brute-force
    # count and the closure of the generators
    rng = random.Random(78)
    for _ in range(60):
        m = _equal_columns_cbm(rng, max_cols=8)
        res = canonical_form(m)
        assert res.group_order == brute_force_cbm_aut_count(m)
        assert res.group_order == sum(
            1 for _ in iter_group(res.generators, m.n_cols))


def test_group_order_matches_closure_on_shortened_matrices():
    # orbit-product orders against the size of the generated group, on 13
    # shortened matrices per field whose groups need more than one generator
    for q in (2, 3, 4, 5):
        seed = 0
        per_field = 0
        while per_field < 13:
            seed += 1
            rng = random.Random(1000 * q + seed)
            k = rng.randrange(2, 4)
            code = random_code(q, rng.randrange(k + 2, k + 7), k, seed=seed)
            gs = systematic_code(code)
            res = canonical_form(build_shortened(gs))
            if len(res.generators) < 2:
                continue
            closure = sum(1 for _ in iter_group(res.generators,
                                                 res.matrix.n_cols))
            assert res.group_order == closure, (q, seed)
            per_field += 1


def test_ternary_golay_12_automorphism_group():
    # [11,6]_3 cyclic code of g = 2 + x^2 + 2x^3 + x^4 + x^5, then parity
    g = [2, 0, 1, 2, 1, 1]
    rows = [[0] * s + g + [0] * (11 - len(g) - s) for s in range(6)]
    rows = [r + [-sum(r) % 3] for r in rows]
    rep = code_aut_group(GeneratorMatrix(3, rows))
    assert rep.h1_order == 95_040  # M12
    assert rep.complete and rep.order == 190_080  # 2.M12


def test_no_sympy_import():
    src = os.path.dirname(os.path.dirname(codequiv.__file__))
    script = textwrap.dedent("""
        import sys
        from codequiv import (GeneratorMatrix, classify, code_aut_group,
                              decide_equivalence)
        rows = [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
                [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]]
        code = GeneratorMatrix(2, rows)
        other = GeneratorMatrix(2, [r[::-1] for r in rows])
        assert code_aut_group(code).order == 168
        assert decide_equivalence(code, other).equivalent
        for algo in ("ceimpg", "cesimpg"):
            assert len(classify([code, other], algo=algo).classes) == 1
        assert "sympy" not in sys.modules, "sympy was imported"
    """)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_group_order_on_point_hyperplane_structures():
    # collineation group orders: m * (1/(q-1)) * prod(q^k - q^i)
    for (k, q, expect) in [(3, 2, 168), (3, 3, 5616), (4, 2, 20160)]:
        inc = incidence(k, q)
        t = inc.n_cols
        m = ColoredBinaryMatrix.from_masks(list(inc.row_masks), t)
        assert canonical_form(m).group_order == expect


def test_identical_columns_fuse_into_symmetry():
    m = ColoredBinaryMatrix([[1, 1, 1, 0]])
    assert canonical_form(m).group_order == 6  # S_3 on the equal columns


def test_distinct_color_multisets_never_isomorphic():
    m1 = ColoredBinaryMatrix([[1, 1]], col_colors=[3, 1])
    m2 = ColoredBinaryMatrix([[1, 1]], col_colors=[2, 2])
    assert is_isomorphic(m1, m2) is None
    assert serialize(canonical_form(m1).matrix) != serialize(
        canonical_form(m2).matrix)


def test_column_colors_break_symmetry():
    plain = ColoredBinaryMatrix([[1, 1]])
    tied = ColoredBinaryMatrix([[1, 1]], col_colors=[1, 2])
    assert canonical_form(plain).group_order == 2
    assert canonical_form(tied).group_order == 1


def test_empty_and_degenerate_shapes():
    no_rows = ColoredBinaryMatrix([], col_colors=[0, 0, 0])
    res = canonical_form(no_rows)
    assert res.group_order == 6  # S_3: nothing distinguishes the columns
    one_cell = ColoredBinaryMatrix([[1]])
    assert canonical_form(one_cell).group_order == 1
    no_cols = ColoredBinaryMatrix([[], []], n_cols=0)
    assert canonical_form(no_cols).matrix == no_cols
    assert is_automorphism(no_cols, []) and is_isomorphic(no_cols, no_cols) == ()


def test_budget_exhaustion_raises(monkeypatch):
    rng = random.Random(1)
    m = _random_cbm(rng, 5, 6)
    monkeypatch.setattr(bmcanon, "NODE_BUDGET", 0)
    with pytest.raises(BudgetExceededError):
        canonical_form(m)


def test_deep_search_ends_at_the_node_budget(monkeypatch):
    # the 1,100 x 1,100 identity, which has no equal columns: the first path
    # individualizes 1,099 columns one by one, so the tree is deeper than
    # the interpreter's recursion limit; only the node budget may stop it
    wide = ColoredBinaryMatrix.from_masks(
        [1 << (1099 - i) for i in range(1100)], 1100)
    monkeypatch.setattr(bmcanon, "NODE_BUDGET", 1200)
    with pytest.raises(BudgetExceededError):
        canonical_form(wide)


def _equal_columns_cbm(rng, max_cols=20):
    """Random colored matrix whose columns repeat a few distinct columns,
    so that its automorphism group is a large product of symmetric
    groups."""
    n_rows, n_cols = rng.randrange(1, 10), rng.randrange(2, max_cols)
    base = [rng.getrandbits(n_rows) for _ in range(rng.randint(1, 4))]
    cols = [rng.choice(base) for _ in range(n_cols)]
    masks = [sum(((c >> i) & 1) << (n_cols - 1 - j) for j, c in enumerate(cols))
             for i in range(n_rows)]
    return ColoredBinaryMatrix.from_masks(
        masks, n_cols, [rng.randrange(rng.randint(1, 2)) for _ in range(n_cols)])


def _oracle_cases():
    """300 seeded matrices, half uneven and half with many equal columns,
    then shortened and ceimpg matrices of random codes and of simplex
    codes."""
    rng = random.Random(1111)
    for t in range(300):
        yield _uneven_cbm(rng) if t % 2 else _equal_columns_cbm(rng)
    for q, n, k, seed in ((2, 9, 4, 1), (3, 8, 3, 2), (4, 7, 3, 3),
                          (5, 9, 2, 4), (2, 12, 3, 5), (3, 6, 3, 6)):
        code = random_code(q, n, k, seed=seed)
        yield build_shortened(code)
        yield build_ceimpg_matrix(characteristic_vector(code))
    for q, k in ((2, 4), (3, 3)):
        code = GeneratorMatrix(q, simplex_generator(k, q).rows)
        yield build_shortened(code)
        yield build_ceimpg_matrix(characteristic_vector(code))


def test_search_tree_matches_recursive_oracle():
    # the explicit-stack search visits the tree of the recursive one: same
    # canonical matrix and perm, same generators in the same order, same
    # group order and node count
    for m in _oracle_cases():
        got = canonical_form(m)
        want = recursive_search(m)
        assert (got.matrix, got.perm, got.generators, got.group_order,
                got.nodes) == (want.matrix, want.perm, want.generators,
                               want.group_order, want.nodes)


def test_children_prune_by_orbits_on_the_first_path_only():
    # columns 2 and 3 are equal, so (0 1 3 2) is an automorphism fixing
    # columns 0 and 1; with it recorded and 2 already tried, column 3 is
    # skipped below the first path's first node and kept elsewhere
    m = ColoredBinaryMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    search = _Search(m)
    search.gens = [(0, 1, 3, 2)]
    assert is_automorphism(m, search.gens[0])

    def children(col_cells, path):
        tried, seen = [], []
        for v, _ in search._children(col_cells, [[0, 1, 2]], 1, tried, path):
            seen.append(v)
            tried.append(v)
        return seen

    # no leaf yet: the path being walked is the first path
    assert children([[0], [1, 2, 3]], [0]) == [1, 2]
    search.first = (b"", [0, 1, 2, 3], [0, 1])
    assert children([[0], [1, 2, 3]], [0]) == [1, 2]
    assert children([[1], [0, 2, 3]], [1]) == [0, 2, 3]


def test_nodes_counter_reported():
    m = ColoredBinaryMatrix([[1, 0], [0, 1]])
    assert canonical_form(m).nodes >= 1
