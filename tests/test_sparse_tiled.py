"""Unit tests for the Appendix A tiled layout."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import native
from repro.sparse.coo import COOMatrix
from repro.sparse.tiled import _order_twin, _pad_to_line, tile_matrix
from tests.walks import WALKS, kernels

TILE_ARRAYS = (
    "sparse_in_start_offset", "tile_nnz_num", "sparse_out_start_offset",
    "tile_row_panel_id", "tile_col_panel_id",
)
"""The Appendix A tile table, one int64 element per tile."""


def _panels(tiled):
    return list(zip(
        tiled.tile_row_panel_id.tolist(), tiled.tile_col_panel_id.tolist()
    ))


def _entries_in_panels(tiled):
    """Every entry lies in its tile's row and column panel."""
    nnz = tiled.tile_nnz_num
    return bool(
        np.all(tiled.r_ids // tiled.row_panel_size
               == np.repeat(tiled.tile_row_panel_id, nnz))
        and np.all(tiled.c_ids // tiled.col_panel_size
                   == np.repeat(tiled.tile_col_panel_id, nnz))
    )


class TestAppendixAExample:
    """The exact 4x4 / RP=CP=2 example of Figure 15."""

    def test_tile_count_and_order(self, tiny_matrix):
        tiled = tile_matrix(tiny_matrix, 2, 2)
        assert tiled.num_tiles == 4
        assert _panels(tiled) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for name in TILE_ARRAYS:
            assert getattr(tiled, name).dtype == np.int64

    def test_tile_nnz_counts(self, tiny_matrix):
        tiled = tile_matrix(tiny_matrix, 2, 2)
        assert tiled.tile_nnz_num.tolist() == [1, 2, 2, 2]

    def test_offsets_contiguous(self, tiny_matrix):
        tiled = tile_matrix(tiny_matrix, 2, 2)
        assert tiled.sparse_in_start_offset.tolist() == [0, 1, 3, 5]

    def test_entry_reordering_matches_figure(self, tiny_matrix):
        # Figure 15(b): vals reordered so per-tile entries consolidate;
        # the first tile holds only (0,1)->1.0 (value "c" in the paper's
        # letters corresponds to our from_dense value at [0,1]).
        tiled = tile_matrix(tiny_matrix, 2, 2)
        lo = tiled.sparse_in_start_offset[0]
        hi = lo + tiled.tile_nnz_num[0]
        assert list(tiled.r_ids[lo:hi]) == [0]
        assert list(tiled.c_ids[lo:hi]) == [1]

    def test_roundtrip(self, tiny_matrix):
        tiled = tile_matrix(tiny_matrix, 2, 2)
        assert tiled.to_coo() == tiny_matrix


class TestLayoutInvariants:
    @pytest.mark.parametrize("rp,cp", [(2, 2), (16, 16), (64, None), (1, 1)])
    def test_validate_passes(self, small_graph, rp, cp):
        tiled = tile_matrix(small_graph, rp, cp)
        tiled.validate()

    def test_preserves_matrix(self, small_graph):
        tiled = tile_matrix(small_graph, 32, 32)
        assert tiled.to_coo() == small_graph

    def test_tiles_cover_all_entries(self, small_graph):
        tiled = tile_matrix(small_graph, 32, 32)
        assert int(tiled.tile_nnz_num.sum()) == small_graph.nnz

    def test_no_empty_tiles(self, small_graph):
        tiled = tile_matrix(small_graph, 8, 8)
        assert np.all(tiled.tile_nnz_num > 0)

    def test_row_major_within_tile(self, small_graph):
        tiled = tile_matrix(small_graph, 64, 64)
        for lo, nnz in zip(tiled.sparse_in_start_offset[:10].tolist(),
                           tiled.tile_nnz_num[:10].tolist()):
            r = tiled.r_ids[lo : lo + nnz]
            c = tiled.c_ids[lo : lo + nnz]
            keys = r * small_graph.num_cols + c
            assert np.all(np.diff(keys) > 0)

    def test_entries_within_panels(self, small_graph):
        tiled = tile_matrix(small_graph, 16, 48)
        assert _entries_in_panels(tiled)


class TestOutputAlignment:
    """Section 4.3: SDDMM output tiles start at cache-line boundaries."""

    def test_out_offsets_line_aligned(self, small_graph):
        tiled = tile_matrix(small_graph, 16, 16)
        assert np.all(tiled.sparse_out_start_offset % 16 == 0)

    def test_out_length_covers_padded_tiles(self, small_graph):
        tiled = tile_matrix(small_graph, 16, 16)
        expected = sum(_pad_to_line(n) for n in tiled.tile_nnz_num.tolist())
        assert tiled.out_vals_length == expected

    def test_pad_to_line(self):
        assert _pad_to_line(1) == 16
        assert _pad_to_line(16) == 16
        assert _pad_to_line(17) == 32


class TestPanelQueries:
    def test_tiles_in_row_panel(self, small_graph):
        """A row panel's tiles hold exactly its rows' entries."""
        tiled = tile_matrix(small_graph, 32, 32)
        for rp in range(tiled.num_row_panels):
            tiles = tiled.tile_row_panel_id == rp
            assert int(tiled.tile_nnz_num[tiles].sum()) == int(
                np.sum(small_graph.r_ids // 32 == rp)
            )

    def test_tiles_in_col_panel(self, small_graph):
        """A column panel's tiles hold exactly its columns' entries."""
        tiled = tile_matrix(small_graph, 32, 32)
        for cp in range(tiled.num_col_panels):
            tiles = tiled.tile_col_panel_id == cp
            assert int(tiled.tile_nnz_num[tiles].sum()) == int(
                np.sum(small_graph.c_ids // 32 == cp)
            )

    def test_panel_counts(self, small_graph):
        tiled = tile_matrix(small_graph, 32, 48)
        assert tiled.num_row_panels == -(-small_graph.num_rows // 32)
        assert tiled.num_col_panels == -(-small_graph.num_cols // 48)

    def test_none_col_panel_means_all_columns(self, small_graph):
        tiled = tile_matrix(small_graph, 32, None)
        assert tiled.num_col_panels == 1
        assert np.all(tiled.tile_col_panel_id == 0)


class TestEdgeCases:
    def test_bad_row_panel(self, tiny_matrix):
        with pytest.raises(ValueError):
            tile_matrix(tiny_matrix, 0, 2)

    def test_panel_larger_than_matrix(self, tiny_matrix):
        tiled = tile_matrix(tiny_matrix, 1000, 1000)
        assert tiled.num_tiles == 1
        assert tiled.tile_nnz_num.tolist() == [tiny_matrix.nnz]

    def test_empty_matrix(self):
        empty = COOMatrix(4, 4, np.array([]), np.array([]), np.array([]))
        tiled = tile_matrix(empty, 2, 2)
        assert tiled.num_tiles == 0
        assert tiled.out_vals_length == 0
        for name in TILE_ARRAYS:
            assert getattr(tiled, name).dtype == np.int64
        tiled.validate()

    def test_validate_detects_corruption(self, tiny_matrix):
        tiled = tile_matrix(tiny_matrix, 2, 2)
        tiled.sparse_in_start_offset[0] = 1
        with pytest.raises(ValueError, match="not contiguous"):
            tiled.validate()

    @pytest.mark.parametrize("array,tile,value,match", [
        ("sparse_in_start_offset", 2, 4, "not contiguous"),
        ("sparse_out_start_offset", 1, 8, "not line-aligned"),
        ("tile_nnz_num", 3, 0, "empty tile"),
        ("tile_col_panel_id", 1, 0, r"duplicate tile \(0, 0\)"),
        ("tile_nnz_num", 3, 3, "does not cover"),
        ("tile_row_panel_id", 0, 5, "outside its row panel"),
        ("tile_col_panel_id", 3, 7, "outside its column panel"),
    ])
    def test_validate_names_each_fault(
        self, tiny_matrix, array, tile, value, match
    ):
        """Each check is reached by editing one element of one array of
        the Figure 15 layout."""
        tiled = tile_matrix(tiny_matrix, 2, 2)
        tiled.validate()
        getattr(tiled, array)[tile] = value
        with pytest.raises(ValueError, match=match):
            tiled.validate()


# -- the compiled tiler against its twin, np.lexsort -----------------------


def _needs_kernel():
    if native.kernels() is None:
        pytest.skip("the compiled kernels do not load on this host")


def _layout(walk, coo, rp, cp):
    """Everything ``tile_matrix`` gives on ``walk``, entry arrays and
    tile arrays as bytes with their dtypes."""
    with kernels(walk):
        t = tile_matrix(coo, rp, cp)
    t.validate()
    arrays = [
        (a.dtype.str, a.tobytes())
        for a in (t.r_ids, t.c_ids, t.vals,
                  *(getattr(t, name) for name in TILE_ARRAYS))
    ]
    return arrays, t.row_panel_size, t.col_panel_size


@st.composite
def tilings(draw):
    """(COO, RP, CP): shapes from empty to 2**21 on a side (a wide key
    span takes several radix passes), rows not a multiple of RP, CP
    from 1 past the column count or ``None``, and the entries in
    row-major, shuffled or reversed order."""
    rows = draw(st.sampled_from([0, 1, 7, 33, 64, 5000, 2**21]))
    cols = draw(st.sampled_from([0, 1, 5, 40, 256, 3000, 2**21]))
    n = draw(st.integers(0, min(rows * cols, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = np.sort(rng.choice(rows * cols, size=n, replace=False))
    order = draw(st.sampled_from(["sorted", "shuffled", "reversed"]))
    if order == "shuffled":
        cells = rng.permutation(cells)
    elif order == "reversed":
        cells = cells[::-1]
    coo = COOMatrix(
        rows, cols, cells // max(cols, 1), cells % max(cols, 1),
        rng.standard_normal(n).astype(np.float32),
    )
    rp = draw(st.integers(1, max(rows, 1) + 3))
    cp = draw(st.one_of(st.none(), st.integers(1, max(cols, 1) + 3)))
    return coo, rp, cp


@given(tilings())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_twin(tiling):
    _needs_kernel()
    assert _layout("native", *tiling) == _layout("python", *tiling)


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("order", ["sorted", "shuffled", "reversed"])
@pytest.mark.parametrize("rp,cp", [(16, None), (16, 16), (5, 7), (1, 1)])
def test_layout_is_the_lexsort_order(small_graph, walk, order, rp, cp):
    """On either path the entries come out in ``np.lexsort((c, r, cp,
    rp))`` order whatever order they came in, and each tile's ids are
    its panels'."""
    rng = np.random.default_rng(1)
    perm = {
        "sorted": np.arange(small_graph.nnz),
        "shuffled": rng.permutation(small_graph.nnz),
        "reversed": np.arange(small_graph.nnz)[::-1],
    }[order]
    a = small_graph
    coo = COOMatrix(
        a.num_rows, a.num_cols, a.r_ids[perm], a.c_ids[perm], a.vals[perm]
    )
    with kernels(walk):
        t = tile_matrix(coo, rp, cp)
    col = t.col_panel_size
    want = np.lexsort((coo.c_ids, coo.r_ids, coo.c_ids // col,
                       coo.r_ids // rp))
    assert np.array_equal(t.r_ids, coo.r_ids[want])
    assert np.array_equal(t.c_ids, coo.c_ids[want])
    assert np.array_equal(t.vals, coo.vals[want])
    assert _entries_in_panels(t)


@given(st.integers(0, 2**32 - 1), st.integers(0, 200))
@settings(max_examples=60, deadline=None)
@example(0, 0)
def test_kernel_keeps_repeated_coordinates_in_input_order(seed, n):
    """A COO matrix holds each coordinate once, but the compiled order
    is stable like lexsort's: repeats keep their input order."""
    _needs_kernel()
    rng = np.random.default_rng(seed)
    rows, cols, rp, cp = 9, 11, 4, 3
    args = (
        rng.integers(0, rows, size=n), rng.integers(0, cols, size=n),
        np.arange(n, dtype=np.float32), rows, cols, rp, cp,
    )
    got = native.kernels().tile(*args)
    want = _order_twin(*args)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_key_span_past_the_kernel_takes_the_twin(monkeypatch):
    """A key span of 2**63 or more (here 2**80) is beyond the compiled
    tiler: tile_matrix takes the twin without calling it."""
    coo = COOMatrix(
        2**40, 2**40, np.array([5, 0, 5, 2**40 - 1]),
        np.array([2**40 - 1, 3, 0, 7]), np.ones(4, np.float32),
    )
    k = native.kernels()
    if k is not None:
        def refuse(*args):
            raise AssertionError("the compiled tiler was called")

        monkeypatch.setattr(native, "_kernels", k._replace(tile=refuse))
    t = tile_matrix(coo, 1, 1)
    t.validate()
    assert t.r_ids.tolist() == [0, 5, 5, 2**40 - 1]
    assert t.c_ids.tolist() == [3, 0, 2**40 - 1, 7]
    assert _panels(t) == [
        (0, 3), (5, 0), (5, 2**40 - 1), (2**40 - 1, 7)
    ]
    for name in TILE_ARRAYS:
        assert getattr(t, name).dtype == np.int64


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("field,value", [
    ("r_ids", -1), ("r_ids", 12), ("c_ids", -3), ("c_ids", 9),
])
def test_entry_outside_the_matrix_is_refused(walk, field, value):
    """An entry outside the matrix (a COO mutated after its checks) is
    refused on either path, and the input arrays are left alone."""
    coo = COOMatrix(12, 9, np.array([0, 4, 11]), np.array([8, 0, 3]),
                    np.ones(3, np.float32))
    getattr(coo, field)[1] = value
    before = [a.tobytes() for a in (coo.r_ids, coo.c_ids, coo.vals)]
    with kernels(walk), pytest.raises(ValueError, match="outside"):
        tile_matrix(coo, 5, 4)
    assert [a.tobytes() for a in (coo.r_ids, coo.c_ids, coo.vals)] == before


@pytest.mark.parametrize("walk", WALKS)
def test_input_arrays_are_not_reordered_in_place(small_graph, walk):
    rng = np.random.default_rng(2)
    perm = rng.permutation(small_graph.nnz)
    a = small_graph
    coo = COOMatrix(a.num_rows, a.num_cols, a.r_ids[perm], a.c_ids[perm],
                    a.vals[perm])
    before = [x.copy() for x in (coo.r_ids, coo.c_ids, coo.vals)]
    with kernels(walk):
        t = tile_matrix(coo, 8, 8)
    for x, y in zip((coo.r_ids, coo.c_ids, coo.vals), before):
        assert x.tobytes() == y.tobytes()
    assert not np.shares_memory(t.r_ids, coo.r_ids)


_GOOD = (np.array([2, 0, 1]), np.array([0, 1, 1]),
         np.ones(3, np.float32), 3, 2, 2, 1)

KERNEL_REJECTED = {
    "r_ids-dtype": (TypeError, 0, np.array([2, 0, 1], np.int32)),
    "c_ids-dtype": (TypeError, 1, np.array([0, 1, 1], np.uint64)),
    "vals-dtype": (TypeError, 2, np.ones(3)),
    "r_ids-strided": (ValueError, 0, np.array([2, 9, 0, 9, 1, 9])[::2]),
    "vals-strided": (ValueError, 2, np.ones(6, np.float32)[::2]),
    "lengths": (ValueError, 1, np.array([0, 1])),
    "outside": (ValueError, 0, np.array([2, 0, 3])),
    "span": (ValueError, 3, 2**62),
}


@pytest.mark.parametrize("case", sorted(KERNEL_REJECTED))
def test_kernel_refuses_what_it_cannot_take(case):
    _needs_kernel()
    error, at, value = KERNEL_REJECTED[case]
    args = list(_GOOD)
    args[at] = value
    with pytest.raises(error):
        native.kernels().tile(*args)
