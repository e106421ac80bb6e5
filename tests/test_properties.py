"""Property-based tests (hypothesis) on core data structures and
simulator invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.core.vrf import VectorRegisterFile
from repro.kernels.reference import sddmm_reference, spmm_reference
from repro.memory.bbf import BypassBuffer
from repro.memory.cache import Cache
from repro.sparse.coo import COOMatrix
from repro.sparse.tiled import tile_matrix


@st.composite
def coo_matrices(draw, max_dim=64, max_nnz=200):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(0, min(max_nnz, rows * cols)))
    cells = draw(
        st.lists(
            st.tuples(
                st.integers(0, rows - 1), st.integers(0, cols - 1)
            ),
            min_size=nnz, max_size=nnz, unique=True,
        )
    )
    vals = draw(
        st.lists(
            st.floats(
                min_value=-100, max_value=100,
                allow_nan=False, width=32,
            ),
            min_size=len(cells), max_size=len(cells),
        )
    )
    r = np.array([c[0] for c in cells], dtype=np.int64)
    c = np.array([c[1] for c in cells], dtype=np.int64)
    return COOMatrix(rows, cols, r, c, np.array(vals, dtype=np.float32))


class TestTilingProperties:
    @given(coo=coo_matrices(), rp=st.integers(1, 70), cp=st.integers(1, 70))
    @settings(max_examples=60, deadline=None)
    def test_tiling_is_lossless(self, coo, rp, cp):
        tiled = tile_matrix(coo, rp, cp)
        tiled.validate()
        assert tiled.to_coo() == coo

    @given(coo=coo_matrices(), rp=st.integers(1, 70))
    @settings(max_examples=30, deadline=None)
    def test_row_panel_partition(self, coo, rp):
        """Each tile belongs to exactly one row panel, and panels
        partition the nonzeros."""
        tiled = tile_matrix(coo, rp, None)
        panel = tiled.tile_row_panel_id
        assert np.all((0 <= panel) & (panel < tiled.num_row_panels))
        total = sum(
            int(tiled.tile_nnz_num[panel == p].sum())
            for p in range(tiled.num_row_panels)
        )
        assert total == coo.nnz

    @given(coo=coo_matrices(), rp=st.integers(1, 40), cp=st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_output_offsets_monotone_aligned(self, coo, rp, cp):
        tiled = tile_matrix(coo, rp, cp)
        offsets = tiled.sparse_out_start_offset
        assert offsets.dtype == np.int64
        assert np.all(np.diff(offsets) > 0)
        assert np.all(offsets % 16 == 0)


class TestKernelProperties:
    @given(coo=coo_matrices(max_dim=32, max_nnz=100), k=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_spmm_matches_dense(self, coo, k):
        rng = np.random.default_rng(0)
        b = rng.random((coo.num_cols, k), dtype=np.float32)
        got = spmm_reference(coo, b)
        want = coo.to_dense().astype(np.float64) @ b.astype(np.float64)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)

    @given(coo=coo_matrices(max_dim=32, max_nnz=100), k=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_sddmm_structure_preserved(self, coo, k):
        rng = np.random.default_rng(1)
        b = rng.random((coo.num_rows, k), dtype=np.float32)
        c = rng.random((coo.num_cols, k), dtype=np.float32)
        out = sddmm_reference(coo, b, c)
        assert out.nnz == coo.nnz
        np.testing.assert_array_equal(out.r_ids, coo.r_ids)

    @given(coo=coo_matrices(max_dim=24, max_nnz=60))
    @settings(max_examples=25, deadline=None)
    def test_spmm_linearity(self, coo):
        """SpMM is linear in B: A @ (x + y) == A @ x + A @ y."""
        rng = np.random.default_rng(2)
        x = rng.random((coo.num_cols, 4), dtype=np.float32)
        y = rng.random((coo.num_cols, 4), dtype=np.float32)
        lhs = spmm_reference(coo, x + y)
        rhs = spmm_reference(coo, x) + spmm_reference(coo, y)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-3, atol=1e-3)


class TestCacheProperties:
    @given(
        accesses=st.lists(st.integers(0, 500), min_size=1, max_size=300),
        assoc=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=50, deadline=None)
    def test_counters_consistent(self, accesses, assoc):
        cache = Cache(CacheConfig(size_bytes=4096, associativity=assoc))
        for line in accesses:
            cache.access(line)
        assert cache.hits + cache.misses == len(accesses)
        assert cache.occupancy() <= cache.num_sets * cache.ways
        assert cache.fills == cache.misses

    @given(accesses=st.lists(st.integers(0, 100), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_repeat_access_always_hits(self, accesses):
        """Accessing the same line twice in a row always hits."""
        cache = Cache(CacheConfig(size_bytes=4096, associativity=2))
        for line in accesses:
            cache.access(line)
            hit, _ = cache.access(line)
            assert hit

    @given(
        writes=st.lists(st.integers(0, 50), min_size=0, max_size=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_flush_conserves_dirty_lines(self, writes):
        cache = Cache(CacheConfig(size_bytes=65536, associativity=16))
        for line in writes:
            cache.access(line, is_write=True)
        resident_dirty = cache.dirty_lines()
        assert cache.flush() == resident_dirty


class TestVRFProperties:
    @given(
        lines=st.lists(
            st.tuples(st.integers(0, 200), st.booleans()),
            min_size=1, max_size=400,
        ),
        regs=st.sampled_from([4, 16, 64]),
    )
    @settings(max_examples=50, deadline=None)
    def test_dirty_fraction_bounded(self, lines, regs):
        """The Write-back Manager keeps the dirty fraction at or below
        the high threshold after every access."""
        vrf = VectorRegisterFile(
            regs, wb_high_threshold=0.25, wb_low_threshold=0.15
        )
        for line, dirty in lines:
            vrf.access(line, mark_dirty=dirty)
            assert vrf.dirty_fraction <= 0.25 + 1.0 / regs
        assert vrf.occupancy <= regs

    @given(
        lines=st.lists(
            st.tuples(st.integers(0, 200), st.booleans()),
            min_size=1, max_size=300,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_dirty_line_eventually_stored(self, lines):
        """No dirty data is lost: each line marked dirty is either
        stored by the manager/eviction or flushed at the end."""
        vrf = VectorRegisterFile(8)
        stored = []
        dirtied = set()
        for line, dirty in lines:
            if dirty:
                dirtied.add(line)
            _, stores = vrf.access(line, mark_dirty=dirty)
            stored.extend(stores)
        stored.extend(vrf.invalidate_all())
        assert dirtied.issubset(set(stored))


class TestBBFProperties:
    @given(stream=st.lists(st.integers(0, 100), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_stream_counters(self, stream):
        bbf = BypassBuffer(
            4, CacheConfig(size_bytes=512, associativity=2)
        )
        for line in stream:
            bbf.stream.access(line)
        assert bbf.stream.hits + bbf.stream.misses == len(stream)
        assert bbf.stream.occupancy() <= 4
