"""Unit tests for the execution engine and PE trace model internals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import KernelSettings
from repro.config import scaled_config
from repro.core.accelerator import SpadeSystem
from repro.core.engine import _coalesced_dispatch, chunk_tables
from repro.core.pe import PECounters
from repro.errors import ConfigError
from repro.memory.hierarchy import ServiceLevel
from repro.sparse.tiled import TiledMatrix


def _layout(nnz):
    """A tile table with ``nnz`` nonzeros per tile (zeros allowed, which
    a real layout never holds), tiles back to back in the entry arrays,
    each tile's output 1000 slots after the one before."""
    nnz = np.asarray(nnz, dtype=np.int64)
    ids = np.zeros(int(nnz.sum()), dtype=np.int64)
    return TiledMatrix(
        num_rows=1, num_cols=1, row_panel_size=1, col_panel_size=1,
        r_ids=ids, c_ids=ids, vals=ids.astype(np.float32),
        sparse_in_start_offset=np.cumsum(nnz) - nnz,
        tile_nnz_num=nnz,
        sparse_out_start_offset=1000 * np.arange(nnz.size, dtype=np.int64),
        tile_row_panel_id=np.zeros(nnz.size, dtype=np.int64),
        tile_col_panel_id=np.arange(nnz.size, dtype=np.int64),
    )


def _cursor(tiled, tiles, chunk_nnz):
    """The reference walk: a cursor over the tile list that emits
    ``(tile, lo, hi)`` nonzero ranges of up to ``chunk_nnz``, tile by
    tile, skipping tiles without nonzeros."""
    chunks = []
    for t in tiles:
        lo, nnz = 0, int(tiled.tile_nnz_num[t])
        while lo < nnz:
            hi = min(lo + chunk_nnz, nnz)
            chunks.append((t, lo, hi))
            lo = hi
    return chunks


def _rows(tiled, chunks):
    """The chunk-table rows of cursor chunks ``(tile, lo, hi)``."""
    return [
        [int(tiled.sparse_in_start_offset[t]) + lo, hi - lo,
         int(tiled.sparse_out_start_offset[t]) + lo]
        for t, lo, hi in chunks
    ]


def _chunks(nnz, chunk_nnz):
    """``(tile, lo, hi)`` of every row the builder cuts from one PE's
    list of tiles with ``nnz`` nonzeros each."""
    tiled = _layout(nnz)
    [table] = chunk_tables(
        tiled, [np.arange(len(nnz), dtype=np.int64)], chunk_nnz
    )
    assert table.dtype == np.int64 and table.shape[1] == 3
    # Each tile's output starts 1000 slots after the one before, so a
    # row's output start names its tile and its offset in the tile.
    tile, lo = np.divmod(table[:, 2], 1000)
    assert np.array_equal(
        table[:, 0], tiled.sparse_in_start_offset[tile] + lo
    )
    return list(zip(
        tile.tolist(), lo.tolist(), (lo + table[:, 1]).tolist()
    ))


class TestChunkCursor:
    """The chunk-table builder walks each tile list the way a cursor
    would: chunks of up to ``chunk_nnz``, restarting at every tile."""

    def test_walks_tiles_in_chunks(self):
        assert _chunks([10, 5], 4) == [
            (0, 0, 4), (0, 4, 8), (0, 8, 10), (1, 0, 4), (1, 4, 5),
        ]

    def test_empty_tiles_list(self):
        assert _chunks([], 4) == []

    def test_chunk_covers_all_nnz(self):
        assert sum(hi - lo for _, lo, hi in _chunks([17, 3, 29], 7)) == 49

    def test_zero_nnz_tiles_skipped(self):
        # Tiles without nonzeros must yield no chunks (not zero-length
        # chunks) wherever they appear.
        assert _chunks([0, 5, 0, 3, 0], 4) == [
            (1, 0, 4), (1, 4, 5), (3, 0, 3),
        ]

    def test_all_zero_nnz_tiles(self):
        assert _chunks([0, 0], 4) == []

    def test_tile_boundary_exactly_on_chunk(self):
        # nnz an exact multiple of chunk_nnz: the next chunk starts the
        # next tile, never an empty (lo == hi) chunk.
        assert _chunks([8, 4], 4) == [(0, 0, 4), (0, 4, 8), (1, 0, 4)]

    def test_final_partial_chunk(self):
        # The last chunk of the last tile is smaller than chunk_nnz and
        # keeps the exact residue bounds.
        assert _chunks([10], 3) == [
            (0, 0, 3), (0, 3, 6), (0, 6, 9), (0, 9, 10),
        ]

    def test_chunk_larger_than_tile(self):
        assert _chunks([2, 3], 100) == [(0, 0, 2), (1, 0, 3)]

    def test_exhausted_cursor_stays_exhausted(self):
        # The builder keeps no cursor state: a second call over the same
        # tiles gives the same table, and the tile table is unchanged.
        tiled = _layout([1, 6])
        before = tiled.tile_nnz_num.copy()
        groups = [np.array([1, 0]), np.array([], dtype=np.int64)]
        first = chunk_tables(tiled, groups, 4)
        second = chunk_tables(tiled, groups, 4)
        assert [t.tolist() for t in first] == [t.tolist() for t in second]
        assert [t.tolist() for t in first] == [
            [[1, 4, 1000], [5, 2, 1004], [0, 1, 0]], [],
        ]
        assert np.array_equal(tiled.tile_nnz_num, before)


@given(
    nnz=st.lists(st.integers(0, 40), max_size=30),
    chunk_nnz=st.integers(1, 50),
    pes=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_chunk_tables_match_a_cursor(nnz, chunk_nnz, pes, seed):
    """Over random tile lists dealt to ``pes`` groups in a random order,
    each group's table is the cursor walk of its tiles, row for row."""
    tiled = _layout(nnz)
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, pes, size=len(nnz))
    perm = rng.permutation(len(nnz))
    groups = [perm[owner[perm] == p].astype(np.int64) for p in range(pes)]
    tables = chunk_tables(tiled, groups, chunk_nnz)
    assert len(tables) == pes
    for tiles, table in zip(groups, tables):
        assert table.dtype == np.int64 and table.flags.c_contiguous
        want = _rows(tiled, _cursor(tiled, tiles.tolist(), chunk_nnz))
        assert table.reshape(-1, 3).tolist() == want


def _round_robin(counts):
    """The reference interleave: each PE's next chunk in PE order,
    round after round, as ``(pe, chunk)`` pairs."""
    order, done = [], [0] * len(counts)
    while sum(done) < sum(counts):
        for pe, count in enumerate(counts):
            if done[pe] < count:
                order.append((pe, done[pe]))
                done[pe] += 1
    return order


@given(
    counts=st.lists(
        st.lists(st.integers(0, 6), min_size=3, max_size=3), max_size=5
    )
)
@settings(max_examples=200, deadline=None)
def test_dispatch_is_the_round_robin(counts):
    """Per epoch, the runs spell out the round-robin interleave with
    consecutive same-PE chunks merged, and the permutation picks the
    same chunks out of the PEs' concatenated tables."""
    grid = np.array(counts, dtype=np.int64).reshape(-1, 3)
    dispatch = _coalesced_dispatch(grid)
    assert len(dispatch) == len(counts)
    for row, (runs, order) in zip(counts, dispatch):
        want = _round_robin(row)
        assert [
            (pe, c) for pe, lo, hi in runs.tolist() for c in range(lo, hi)
        ] == want
        pes = runs[:, 0].tolist()
        assert all(a != b for a, b in zip(pes, pes[1:]))
        first = np.cumsum(row) - row
        assert order.tolist() == [first[pe] + c for pe, c in want]


class TestPECounters:
    def test_merge_sums_everything(self):
        a = PECounters(tops=1, vops=2, sparse_line_reads=3)
        a.dense_reads_by_level[ServiceLevel.DRAM] = 7
        b = PECounters(tops=10, vops=20, sparse_line_reads=30)
        b.dense_reads_by_level[ServiceLevel.DRAM] = 70
        m = a.merged(b)
        assert m.tops == 11 and m.vops == 22
        assert m.dense_reads_by_level[ServiceLevel.DRAM] == 77

    def test_total_requests(self):
        c = PECounters(sparse_line_reads=5)
        c.dense_reads_by_level[ServiceLevel.L1] = 3
        c.stores_by_level[ServiceLevel.DRAM] = 2
        assert c.total_requests == 10


class TestEngineAccounting:
    @pytest.fixture()
    def report(self, small_graph, dense_b_factory):
        system = SpadeSystem(scaled_config(4, cache_shrink=8))
        b = dense_b_factory(small_graph.num_cols, 32)
        return system.spmm(small_graph, b)

    def test_dense_reads_split_across_levels(self, report):
        total = sum(report.counters.dense_reads_by_level)
        assert total > 0
        # VRF filtering keeps dense reads at or below 2 per vOp.
        assert total <= 2 * report.counters.vops

    def test_sparse_lines_match_stream_size(self, report, small_graph):
        # Three arrays x nnz x 4B, in 64B lines, per-tile rounding; with
        # one big tile the line counts are essentially nnz*12/64.
        approx_lines = 3 * small_graph.nnz * 4 / 64
        assert report.counters.sparse_line_reads == pytest.approx(
            approx_lines, rel=0.2
        )

    def test_dram_reads_bounded_by_requests(self, report):
        assert report.stats.dram_reads <= report.counters.total_requests

    def test_stores_generated_by_writeback_manager(self, report):
        assert sum(report.counters.stores_by_level) > 0

    def test_termination_flush_accounted(self, report):
        assert report.result.termination_ns > 0
        assert report.result.dirty_lines_flushed >= 0
        assert report.result.compute_time_ns < report.time_ns

    def test_region_traffic_tags(self, report):
        regions = report.stats.by_region
        assert "sparse" in regions
        assert "cmatrix" in regions or "rmatrix" in regions

    def test_epoch_counters_sum_to_totals(
        self, small_graph, dense_b_factory
    ):
        system = SpadeSystem(scaled_config(4, cache_shrink=8))
        b = dense_b_factory(small_graph.num_cols, 32)
        rep = system.spmm(
            small_graph, b,
            KernelSettings(
                row_panel_size=16, col_panel_size=32, use_barriers=True
            ),
        )
        assert rep.counters.tops == small_graph.nnz

    def test_schedule_pe_mismatch_rejected(
        self, small_graph, dense_b_factory
    ):
        from repro.core.cpe import ControlProcessor
        from repro.core.engine import Engine
        from repro.core.instructions import Primitive
        from repro.sparse.tiled import tile_matrix

        system = SpadeSystem(scaled_config(4, cache_shrink=8))
        tiled = tile_matrix(small_graph, 256, None)
        amap = system._build_address_map(tiled, 32, Primitive.SPMM)
        init = system.cpe.make_initialization(
            Primitive.SPMM, amap, False, False, 32
        )
        from repro.core.bypass import BypassPolicy

        engine = Engine(
            system.config, tiled, init, amap, BypassPolicy()
        )
        wrong_schedule = ControlProcessor(2).build_schedule(tiled)
        with pytest.raises(ConfigError, match="PEs"):
            engine.run_spmm(
                wrong_schedule,
                dense_b_factory(small_graph.num_cols, 32),
            )

    def test_schedule_of_another_layout_rejected(
        self, small_graph, dense_b_factory
    ):
        """The engine runs the schedule it is passed, and refuses one
        whose tile indices name another layout's tiles."""
        from repro.core.bypass import BypassPolicy
        from repro.core.cpe import ControlProcessor
        from repro.core.engine import Engine
        from repro.core.instructions import Primitive
        from repro.sparse.tiled import tile_matrix

        system = SpadeSystem(scaled_config(4, cache_shrink=8))
        tiled = tile_matrix(small_graph, 256, None)
        amap = system._build_address_map(tiled, 32, Primitive.SPMM)
        init = system.cpe.make_initialization(
            Primitive.SPMM, amap, False, False, 32
        )
        engine = Engine(system.config, tiled, init, amap, BypassPolicy())
        other = ControlProcessor(4).build_schedule(
            tile_matrix(small_graph, 16, 16)
        )
        with pytest.raises(ConfigError, match="different tiled matrix"):
            engine.run_spmm(
                other, dense_b_factory(small_graph.num_cols, 32)
            )


class TestVRFFiltering:
    def test_row_reuse_filtered_by_vrf(self, dense_b_factory):
        """Consecutive nonzeros in the same row share rMatrix lines;
        the VRF tag CAM must absorb those repeats."""
        from repro.sparse.coo import COOMatrix

        n = 64
        r = np.zeros(n, dtype=np.int64)  # all in row 0
        c = np.arange(n, dtype=np.int64)
        m = COOMatrix(4, n, r, c, np.ones(n, dtype=np.float32))
        system = SpadeSystem(scaled_config(1, cache_shrink=8))
        rep = system.spmm(m, dense_b_factory(n, 32))
        rmatrix_reads = rep.stats.by_region.get("rmatrix", 0)
        # 64 tOps all touch the same 2 rMatrix lines: far fewer DRAM
        # rmatrix reads than tOps.
        assert rep.counters.vops == n * 2
        assert rmatrix_reads <= 8
