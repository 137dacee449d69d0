"""Projective point tables and hyperplane support structures."""

import random
import tracemalloc

import numpy as np
import pytest

import codequiv
from codequiv import (ColoredBinaryMatrix, field, incidence, point_table,
                      simplex_generator, theta)
from codequiv import projgeom
from codequiv.bmcanon import _pack_rows
from codequiv.errors import ResourceLimitError
from codequiv.projgeom import (MAX_INCIDENCE_CELLS, MAX_POINTS,
                               codeword_weights, incidence_columns,
                               nonzero_dot_bits, point_at)
from conftest import reference_codeword_weights


def test_theta_values():
    assert theta(1, 3) == 4
    assert theta(2, 3) == 13
    assert theta(2, 2) == 7
    assert theta(3, 2) == 15
    assert theta(3, 3) == 40
    assert theta(1, 5) == 6
    assert theta(0, 7) == 1
    assert theta(2, 4) == 21


def test_point_table_2_3_exact():
    t = point_table(2, 3)
    assert t.points == ((0, 1), (1, 0), (1, 1), (1, 2))


def test_point_table_3_2_exact():
    t = point_table(3, 2)
    assert t.points == ((0, 0, 1), (0, 1, 0), (0, 1, 1),
                        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))


@pytest.mark.parametrize("k,q", [(1, 5), (2, 2), (2, 4), (2, 9), (3, 3), (4, 2)])
def test_point_table_properties(k, q):
    t = point_table(k, q)
    pts = t.points
    assert len(pts) == theta(k - 1, q)
    assert len(set(pts)) == len(pts)
    assert list(pts) == sorted(pts)  # frozen ordering: lexicographic
    for p in pts:
        lead = next(v for v in p if v)
        assert lead == 1  # normalized representative


def test_point_table_indexing():
    t = point_table(3, 3)
    for pos, p in enumerate(t.points):
        assert t.index_of(p) == pos + 1  # public indices are 1-based
        assert t.position_of(p) == pos
    with pytest.raises(ValueError):
        t.index_of((0, 0, 0))
    with pytest.raises(ValueError):
        t.index_of((0, 0, 2))  # not normalized, so not a table entry


# (k, q, modulus): k = 1, prime and composite fields, and q > 256, whose
# coordinates are uint16
ONE_ORDER_FIELDS = [(1, 2, None), (1, 7, None), (3, 2, None), (4, 3, None),
                    (3, 4, None), (2, 9, None), (3, 9, None), (2, 257, None),
                    (2, 512, 515)]


@pytest.mark.parametrize("k,q,modulus", ONE_ORDER_FIELDS)
def test_one_point_order(k, q, modulus):
    """The table's unranking (`coords`, `points`), `point_at` and the
    ranking of `index_of`/`position_of` list the points in one order."""
    table = point_table(k, q, modulus)
    assert table.coords.shape == (k, theta(k - 1, q))
    assert table.coords.dtype == (np.uint8 if q <= 256 else np.uint16)
    assert not table.coords.flags.writeable
    points = table.points
    assert list(points) == sorted(points)
    for i, point in enumerate(points):
        assert point == point_at(k, q, i)
        assert table.position_of(point) == i
        assert table.index_of(point) == i + 1
        assert point == tuple(table.coords[:, i].tolist())


def test_index_of_refuses_points_that_are_not_normalized():
    table = point_table(3, 5)
    for bad in [(0, 0, 0), (0, 2, 1), (3, 0, 0), (1, 5, 0), (1, -1, 0),
                (1, 0), (0, 0, 0, 1), (1, 0, 0.0), (1.0, 0, 0)]:
        with pytest.raises(ValueError):
            table.index_of(bad)
    point = (np.int64(1), np.uint8(4), np.int32(2))
    assert table.index_of(point) == table.index_of((1, 4, 2)) == 29
    assert table.position_of(np.array([0, 1, 3])) == 4


def test_point_table_holds_only_its_coordinates(monkeypatch):
    """PG(9,3): 29,524 points in one 10 x 29,524 uint8 array, about 0.3
    MB (a tuple and a dict entry per point took 5.6 MB)."""
    field(3)
    monkeypatch.setattr(projgeom, "_TABLE_CACHE", {})
    tracemalloc.start()
    try:
        table = point_table(10, 3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) == 29_524
    assert held < 1_000_000


def test_point_table_repr_is_short():
    assert repr(point_table(6, 3)) == "PointTable(PG(5,3), 364 points)"
    assert repr(point_table(2, 512, 515)) == "PointTable(PG(1,512), 513 points)"


def test_exports_resolve_and_incidence_is_an_uncolored_matrix():
    # a name left in __all__ after its object is gone breaks import *
    missing = [name for name in codequiv.__all__
               if not hasattr(codequiv, name)]
    assert not missing
    inc = incidence(3, 2)
    assert type(inc) is ColoredBinaryMatrix
    assert (inc.n_rows, inc.n_cols) == (7, 7)
    assert inc.col_colors == (0,) * 7
    assert incidence(3, 2) is inc  # cached


def test_incidence_resource_guard(monkeypatch):
    # PG(12,2) (8,191 points) is allowed, PG(13,2) (16,383) is refused
    # before any mask is computed; its point table is within MAX_POINTS
    assert theta(12, 2) ** 2 <= MAX_INCIDENCE_CELLS < theta(13, 2) ** 2
    monkeypatch.setattr(projgeom, "_nonzero_dot_blocks", None)
    with pytest.raises(ResourceLimitError, match="over the 100000000 limit"):
        incidence(14, 2)


def test_point_table_resource_guard():
    with pytest.raises(Exception) as exc:
        point_table(8, 13)  # theta(7,13) is ~6e7 points
    assert "point" in str(exc.value).lower() or str(MAX_POINTS) in str(exc.value)


@pytest.mark.parametrize("k,q", [(2, 3), (3, 2), (3, 3), (3, 4)])
def test_simplex_generator(k, q):
    g = simplex_generator(k, q)
    t = point_table(k, q)
    assert g.nrows == k and g.ncols == len(t.points)
    assert tuple(tuple(c) for c in g.columns()) == t.points


@pytest.mark.parametrize("k,q", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 4),
                                 (4, 2), (3, 8), (3, 9), (2, 25), (2, 27)])
def test_incidence_row_weights_and_symmetry(k, q):
    """Row i marks the points NOT on hyperplane i; every hyperplane misses
    exactly q^(k-1) of the theta(k-1) points, and u.v = v.u."""
    inc = incidence(k, q)
    t = point_table(k, q)
    n = inc.n_cols
    assert n == len(t.points)
    for i in range(n):
        assert inc.row_masks[i].bit_count() == q ** (k - 1)
    for i in range(n):
        for j in range(i, n):
            assert inc.entry(i, j) == inc.entry(j, i)


def test_incidence_entries_match_dot_products():
    for (k, q) in [(3, 3), (2, 4), (3, 4), (3, 8), (3, 9)]:
        spec = field(q)
        inc = incidence(k, q)
        pts = point_table(k, q).points
        for i, u in enumerate(pts):
            for j, v in enumerate(pts):
                assert inc.entry(i, j) == (1 if spec.dot(u, v) else 0)


def _dot_masks(table, vectors):
    """The row masks of nonzero_dot_bits(table, vectors), packed as
    incidence() packs the kernel's blocks."""
    return _pack_rows(nonzero_dot_bits(table, vectors))


def _want_masks(spec, points, vectors):
    """The masks of _dot_masks, one field inner product at a time."""
    masks = []
    for u in points:
        want = 0
        for v in vectors:
            want = (want << 1) | (1 if spec.dot(u, v) else 0)
        masks.append(want)
    return masks


@pytest.mark.parametrize("k,q", [(10, 2), (7, 3)])
def test_nonzero_dot_masks_across_blocks(k, q, monkeypatch):
    """Tables of over 1,000 points, taken 100 points to a block; every mask
    must still equal the per-pair inner products."""
    monkeypatch.setattr(projgeom, "_BLOCK_CELLS", 37 * 100)
    spec = field(q)
    table = point_table(k, q)
    assert len(table) > 1000
    rng = random.Random(k)
    vectors = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(37)]
    assert _dot_masks(table, vectors) == _want_masks(
        spec, table.points, vectors)


@pytest.mark.parametrize("k,q", [(3, 2), (3, 4), (2, 9)])
def test_incidence_masks_packed_across_blocks(k, q, monkeypatch):
    """incidence() packs the kernel's blocks one after another: with blocks
    of two points, its masks still equal the per-pair inner products."""
    monkeypatch.setattr(projgeom, "_INCIDENCE_CACHE", {})
    table = point_table(k, q)
    monkeypatch.setattr(projgeom, "_BLOCK_CELLS", 2 * len(table))
    assert list(incidence(k, q).row_masks) == _want_masks(
        field(q), table.points, table.points)


# (k, q, modulus): both bodies of the mask kernel, prime (GF(2) and odd)
# and composite (characteristic 2 and odd), with accumulators wider than
# uint8 past q = 256 (515 is x^9 + x + 1 over GF(2), 734 is x^6 + x + 2
# over GF(3)); in (4, 9) and (2, 25) the exact digit sum k(p-1) is 8, a
# power of two, so a digit field one bit too narrow would carry
KERNEL_FIELDS = [(5, 2, None), (4, 3, None), (3, 7, None), (2, 257, None),
                 (3, 4, None), (3, 8, None), (3, 16, None), (2, 512, 515),
                 (3, 9, None), (3, 25, None), (2, 27, None), (2, 49, 50),
                 (2, 729, 734), (4, 9, None), (2, 25, None)]


@pytest.mark.parametrize("k,q,modulus", KERNEL_FIELDS)
def test_nonzero_dot_masks_match_dot_on_every_field(k, q, modulus,
                                                    monkeypatch):
    """Every (point, vector) pair against spec.dot, with blocks of two
    points so the accumulator crosses many block boundaries; the vectors
    include the zero vector and unnormalized ones."""
    spec = field(q, modulus)
    table = point_table(k, q, modulus)
    rng = random.Random(q)
    vectors = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(22)]
    vectors.append((0,) * k)
    monkeypatch.setattr(projgeom, "_BLOCK_CELLS", 2 * len(vectors))
    assert _dot_masks(table, vectors) == _want_masks(
        spec, table.points, vectors)


@pytest.mark.parametrize("k,q", [(3, 2), (3, 3), (3, 4), (2, 9)])
def test_nonzero_dot_masks_of_no_vectors(k, q):
    table = point_table(k, q)
    assert nonzero_dot_bits(table, []).shape == (len(table), 0)
    assert _dot_masks(table, []) == [0] * len(table)


@pytest.mark.parametrize("k,q", [(3, 2), (3, 3), (3, 4), (2, 9)])
def test_nonzero_dot_bits_of_an_array(k, q):
    """An m x k NumPy array of vectors gives the bits its rows give as
    tuples, and an empty (0, k) array no columns."""
    table = point_table(k, q)
    rng = random.Random(k * q)
    vectors = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(5)]
    want = nonzero_dot_bits(table, vectors)
    for dtype in (np.int64, np.uint8):
        got = nonzero_dot_bits(table, np.array(vectors, dtype=dtype))
        assert got.dtype == want.dtype and np.array_equal(got, want)
    empty = nonzero_dot_bits(table, np.zeros((0, k), np.int64))
    assert empty.shape == (len(table), 0) and empty.dtype == np.uint8


@pytest.mark.parametrize("cols", [0, 1, 8, 64, 65, 130])
def test_codeword_weights_match_the_mask_popcounts(cols):
    """codeword_weights, one einsum over a 0/1 array, equals the popcounted
    weights of its rows' masks (conftest), colors from 0 to 40, for no
    rows, one and many."""
    rng = random.Random(cols)
    for rows in (0, 1, 50):
        bits = np.array([[rng.randrange(2) for _ in range(cols)]
                         for _ in range(rows)], np.uint8).reshape(rows, cols)
        colors = [rng.randrange(41) for _ in range(cols)]
        got = codeword_weights(bits, colors)
        assert got == reference_codeword_weights(_pack_rows(bits), colors)
        assert all(type(w) is int for w in got)


@pytest.mark.parametrize("k,q", [(1, 2), (3, 2), (4, 3), (3, 4), (2, 9),
                                 (3, 5)])
def test_point_at_unranks_the_table(k, q):
    table = point_table(k, q)
    assert [point_at(k, q, j) for j in range(len(table))] == list(
        table.points)


def test_incidence_columns_slice_within_one_block(monkeypatch):
    """PG(8,2), 511 points, has 261,121 incidence cells, within one kernel
    block of 2^18: its columns are sliced out of the cached incidence.
    PG(3,8), 585 points, is past it and runs the kernel on its columns
    alone.  So does PG(2,5) under an incidence bound below its 961 cells,
    which then raises nothing.  Every gather equals the kernel's bits."""
    built = []
    real = projgeom.incidence
    monkeypatch.setattr(projgeom, "incidence",
                        lambda *a: built.append(a[:2]) or real(*a))
    cases = [(9, 2, 10 ** 8, True), (4, 8, 10 ** 8, False),
             (3, 5, 960, False), (3, 5, 961, True)]
    for k, q, bound, sliced in cases:
        monkeypatch.setattr(projgeom, "MAX_INCIDENCE_CELLS", bound)
        table = point_table(k, q)
        points = table.points
        positions = random.Random(k * q).sample(range(len(table)), 30)
        for chosen in (positions, []):
            built.clear()
            got = incidence_columns(table, chosen)
            want = nonzero_dot_bits(table, [points[j] for j in chosen])
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert built == ([(k, q)] if sliced else [])
