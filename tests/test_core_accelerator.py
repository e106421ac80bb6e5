"""Integration tests: the full SPADE system against the golden kernels.

Every (settings, kernel) combination must produce the numerically exact
result — the flexibility knobs change performance, never the answer.
"""

import numpy as np
import pytest

from repro import KernelSettings, SpadeSystem, sddmm_output_to_coo
from repro.core.instructions import Primitive
from repro.kernels import sddmm_reference, spmm_reference
from repro.sparse.tiled import tile_matrix

SETTINGS_GRID = [
    KernelSettings(),
    KernelSettings(row_panel_size=16, col_panel_size=32),
    KernelSettings(row_panel_size=16, col_panel_size=32, use_barriers=True),
    KernelSettings(rmatrix_bypass=True),
    KernelSettings(
        row_panel_size=8, col_panel_size=16,
        rmatrix_bypass=True, use_barriers=True,
    ),
    KernelSettings(sparse_stream_bypass=False, sddmm_output_bypass=False),
]


class TestSpMMCorrectness:
    @pytest.mark.parametrize("settings", SETTINGS_GRID)
    def test_matches_reference(
        self, small_system, small_graph, dense_b_factory, settings
    ):
        b = dense_b_factory(small_graph.num_cols, 32)
        report = small_system.spmm(small_graph, b, settings)
        expected = spmm_reference(small_graph, b)
        np.testing.assert_allclose(
            report.output, expected, rtol=1e-4, atol=1e-4
        )

    def test_rectangular_matrix(
        self, small_system, random_rect, dense_b_factory
    ):
        b = dense_b_factory(random_rect.num_cols, 16)
        report = small_system.spmm(random_rect, b)
        np.testing.assert_allclose(
            report.output, spmm_reference(random_rect, b),
            rtol=1e-4, atol=1e-4,
        )

    @pytest.mark.parametrize("k", [16, 32, 64, 128])
    def test_various_k(self, small_system, tiny_matrix, dense_b_factory, k):
        b = dense_b_factory(tiny_matrix.num_cols, k)
        report = small_system.spmm(tiny_matrix, b)
        np.testing.assert_allclose(
            report.output, spmm_reference(tiny_matrix, b), rtol=1e-4
        )

    def test_k_not_multiple_of_line_is_padded(
        self, small_system, tiny_matrix, dense_b_factory
    ):
        b = dense_b_factory(tiny_matrix.num_cols, 20)  # pads to 2 lines
        report = small_system.spmm(tiny_matrix, b)
        np.testing.assert_allclose(
            report.output, spmm_reference(tiny_matrix, b), rtol=1e-4
        )

    def test_shape_validation(self, small_system, tiny_matrix):
        with pytest.raises(ValueError, match="B must be"):
            small_system.spmm(
                tiny_matrix, np.ones((99, 8), dtype=np.float32)
            )


class TestSDDMMCorrectness:
    @pytest.mark.parametrize("settings", SETTINGS_GRID)
    def test_matches_reference(
        self, small_system, small_graph, dense_b_factory, settings
    ):
        b = dense_b_factory(small_graph.num_rows, 32, seed=1)
        c = dense_b_factory(small_graph.num_cols, 32, seed=2)
        report = small_system.sddmm(small_graph, b, c, settings)
        tiled = tile_matrix(
            small_graph, settings.row_panel_size, settings.col_panel_size
        )
        got = sddmm_output_to_coo(tiled, report.output)
        assert got == sddmm_reference(small_graph, b, c)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_extraction_matches_the_tile_loop(self, dtype):
        """One gather reads the padded output exactly as a loop over
        the tiles does, on a layout of thousands of tiles."""
        from repro.sparse.generators import uniform_random

        a = uniform_random(400, 300, 6000, seed=3)
        tiled = tile_matrix(a, 8, 8)
        assert tiled.num_tiles > 1000
        out = np.random.default_rng(4).standard_normal(
            tiled.out_vals_length
        ).astype(dtype)
        want = np.empty(tiled.nnz, dtype=np.float32)
        for lo, nnz, at in zip(
            tiled.sparse_in_start_offset.tolist(),
            tiled.tile_nnz_num.tolist(),
            tiled.sparse_out_start_offset.tolist(),
        ):
            want[lo : lo + nnz] = out[at : at + nnz]
        got = sddmm_output_to_coo(tiled, out)
        assert got.vals.dtype == np.float32
        assert got.vals.tobytes() == want.tobytes()
        assert np.array_equal(got.r_ids, tiled.r_ids)
        assert np.array_equal(got.c_ids, tiled.c_ids)

    def test_shape_validation(self, small_system, random_rect):
        b_bad = np.ones((random_rect.num_rows + 1, 8), dtype=np.float32)
        c = np.ones((random_rect.num_cols, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="B must be"):
            small_system.sddmm(random_rect, b_bad, c)

    def test_k_mismatch(self, small_system, random_rect):
        b = np.ones((random_rect.num_rows, 8), dtype=np.float32)
        c = np.ones((random_rect.num_cols, 16), dtype=np.float32)
        with pytest.raises(ValueError, match="row size K"):
            small_system.sddmm(random_rect, b, c)


class TestExecutionReport:
    def test_report_fields_populated(
        self, small_system, small_graph, dense_b_factory
    ):
        b = dense_b_factory(small_graph.num_cols, 32)
        rep = small_system.spmm(small_graph, b)
        assert rep.time_ns > 0
        assert rep.time_ms == pytest.approx(rep.time_ns / 1e6)
        assert rep.dram_accesses > 0
        assert rep.requests_per_cycle > 0
        assert 0 < rep.bandwidth_utilization <= 1.0
        assert rep.load_imbalance >= 1.0
        assert rep.result.primitive is Primitive.SPMM

    def test_sparse_stream_traffic_accounted(
        self, small_system, small_graph, dense_b_factory
    ):
        b = dense_b_factory(small_graph.num_cols, 32)
        rep = small_system.spmm(small_graph, b)
        assert rep.stats.by_region.get("sparse", 0) > 0
        assert rep.counters.sparse_line_reads > 0

    def test_tops_equal_nnz_and_vops_scale_with_k(
        self, small_system, small_graph, dense_b_factory
    ):
        b32 = dense_b_factory(small_graph.num_cols, 32)
        b64 = dense_b_factory(small_graph.num_cols, 64)
        r32 = small_system.spmm(small_graph, b32)
        r64 = small_system.spmm(small_graph, b64)
        assert r32.counters.tops == small_graph.nnz
        assert r32.counters.vops == small_graph.nnz * 2  # K=32 -> 2 lines
        assert r64.counters.vops == small_graph.nnz * 4

    def test_barriers_produce_multiple_epochs(
        self, small_system, small_graph, dense_b_factory
    ):
        b = dense_b_factory(small_graph.num_cols, 32)
        rep = small_system.spmm(
            small_graph, b,
            KernelSettings(
                row_panel_size=16, col_panel_size=16, use_barriers=True
            ),
        )
        assert len(rep.result.epoch_timings) > 1
        total = sum(e.epoch_time_ns for e in rep.result.epoch_timings)
        assert rep.time_ns == pytest.approx(
            total + rep.result.termination_ns
        )


class TestBypassBehaviour:
    def test_rmatrix_bypass_avoids_cache_pollution(
        self, small_system, small_graph, dense_b_factory
    ):
        b = dense_b_factory(small_graph.num_cols, 32)
        cached = small_system.spmm(small_graph, b, KernelSettings())
        bypassed = small_system.spmm(
            small_graph, b, KernelSettings(rmatrix_bypass=True)
        )
        # Bypassed rMatrix lines go through the victim cache instead.
        assert bypassed.stats.victim.accesses > 0
        assert cached.stats.victim.accesses == 0
        assert (
            bypassed.stats.l1.accesses < cached.stats.l1.accesses
        )

    def test_sparse_cache_pollution_without_bypass(
        self, small_system, small_graph, dense_b_factory
    ):
        """Pre-CFG4 behaviour: the sparse stream occupies the caches."""
        b = dense_b_factory(small_graph.num_cols, 32)
        no_bypass = small_system.spmm(
            small_graph, b, KernelSettings(sparse_stream_bypass=False)
        )
        with_bypass = small_system.spmm(small_graph, b, KernelSettings())
        assert (
            no_bypass.stats.l1.accesses > with_bypass.stats.l1.accesses
        )
        assert with_bypass.stats.bbf_stream.accesses > 0


class TestScaledSystems:
    def test_more_pes_not_slower(self, small_graph, dense_b_factory):
        b = dense_b_factory(small_graph.num_cols, 32)
        times = []
        for pes in (2, 8):
            system = SpadeSystem.scaled(pes)
            times.append(system.spmm(small_graph, b).time_ns)
        assert times[1] < times[0]

    def test_spade2_config_scales_resources(self):
        s1 = SpadeSystem.scaled(8).config
        s2 = s1.scaled(2)
        assert s2.num_pes == 16
        assert s2.memory.dram_achievable_gbps == pytest.approx(
            2 * s1.memory.dram_achievable_gbps
        )
        assert s2.memory.num_llc_slices == 2 * s1.memory.num_llc_slices
        assert s2.memory.link_latency_ns == 2 * s1.memory.link_latency_ns
