"""Unit tests for system configuration and scaling."""

import pytest

from repro.config import (
    CACHE_LINE_BYTES,
    CacheConfig,
    ELEMS_PER_LINE,
    as_dict,
    config_summary,
    mini_config,
    paper_config,
    scaled_config,
)


class TestTable1Defaults:
    """The paper_config must reproduce Table 1."""

    def test_pe_parameters(self):
        pe = paper_config().pe
        assert pe.frequency_ghz == 0.8
        assert pe.issue_vops_per_cycle == 1
        assert pe.num_vector_registers == 64
        assert pe.writeback_high_threshold == 0.25
        assert pe.writeback_low_threshold == 0.15
        assert pe.dense_load_queue_entries == 32
        assert pe.sparse_load_queue_entries == 6
        assert pe.store_queue_entries == 8
        assert pe.vop_rs_entries == 32
        assert pe.l1d.size_bytes == 32 * 1024
        assert pe.bbf_entries == 32
        assert pe.victim_cache.size_bytes == 16 * 1024

    def test_system_parameters(self):
        cfg = paper_config()
        assert cfg.num_pes == 224
        assert cfg.memory.pes_per_l2 == 4
        assert cfg.num_l2s == 56
        assert cfg.memory.dram_peak_gbps == 410.0
        assert cfg.memory.dram_achievable_gbps == 304.0
        assert cfg.memory.link_latency_ns == 60.0
        # Total L1: 224 x 32 KB = 7 MB (Table 1 says 7.2 MB incl. tags).
        assert cfg.total_l1_bytes == 224 * 32 * 1024

    def test_host_parameters(self):
        host = paper_config().host
        assert host.num_cores == 56
        assert host.tdp_watts == 470.0
        assert host.llc_total_bytes == 84 * 1024 * 1024

    def test_derived_constants(self):
        assert CACHE_LINE_BYTES == 64
        assert ELEMS_PER_LINE == 16


class TestScaledSystems:
    def test_spade_n_scaling(self):
        """Section 7.E: SPADEn scales PEs, DRAM BW, LLC, link latency."""
        base = paper_config()
        for factor in (2, 4, 8):
            scaled = base.scaled(factor)
            assert scaled.num_pes == 224 * factor
            assert scaled.memory.dram_achievable_gbps == 304.0 * factor
            assert scaled.memory.num_llc_slices == 56 * factor
            assert scaled.memory.link_latency_ns == 60.0 * factor
            assert scaled.name == f"SPADE{factor}"

    def test_scaled_config_preserves_per_pe_ratios(self):
        cfg = scaled_config(28)
        base = paper_config()
        assert cfg.num_pes == 28
        per_pe_bw = cfg.memory.dram_achievable_gbps / cfg.num_pes
        base_per_pe = base.memory.dram_achievable_gbps / base.num_pes
        assert per_pe_bw == pytest.approx(base_per_pe)

    def test_cache_shrink_scales_shared_caches(self):
        plain = scaled_config(8)
        shrunk = scaled_config(8, cache_shrink=32)
        assert shrunk.memory.llc_slice.size_bytes < (
            plain.memory.llc_slice.size_bytes
        )
        assert shrunk.memory.l2.size_bytes < plain.memory.l2.size_bytes
        assert shrunk.host.llc_total_bytes < plain.host.llc_total_bytes
        # L1 shrinks at most 8x; BBF is untouched.
        assert shrunk.pe.l1d.size_bytes >= plain.pe.l1d.size_bytes // 8
        assert shrunk.pe.bbf_entries == plain.pe.bbf_entries

    def test_shrunk_caches_keep_alignment(self):
        cfg = scaled_config(8, cache_shrink=32)
        for cache in (cfg.pe.l1d, cfg.memory.l2, cfg.memory.llc_slice):
            assert cache.num_sets >= 1
            assert cache.size_bytes % (
                cache.associativity * cache.line_bytes
            ) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            scaled_config(0)
        with pytest.raises(ValueError):
            scaled_config(8, cache_shrink=0.5)
        with pytest.raises(ValueError):
            paper_config().scaled(0)

    def test_mini_config(self):
        cfg = mini_config(4)
        assert cfg.num_pes == 4
        assert cfg.memory.num_llc_slices == 1


class TestUtilities:
    def test_cache_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1001, associativity=2)

    def test_summary_mentions_key_values(self):
        text = config_summary(paper_config())
        assert "224" in text
        assert "0.8 GHz" in text

    def test_as_dict_roundtrippable(self):
        d = as_dict(paper_config())
        assert d["num_pes"] == 224
        assert d["pe"]["num_vector_registers"] == 64


class TestReplayRegistry:
    """The fixed pair of trace-replay backends behind
    ``SpadeConfig.replay``: the scalar oracle and the array backend."""

    def test_builtin_modes_registered(self):
        from repro.config import REPLAY_MODES

        assert REPLAY_MODES == ("scalar", "array")
        assert scaled_config(2).replay == "array"

    def test_validation_error_names_registry_modes(self):
        import dataclasses

        from repro.config import REPLAY_MODES
        from repro.errors import ConfigError

        with pytest.raises(ConfigError) as exc:
            dataclasses.replace(scaled_config(2), replay="bogus")
        message = str(exc.value)
        assert "'bogus'" in message
        for mode in REPLAY_MODES:
            assert mode in message

    def test_unknown_backend_lookup_names_modes(self):
        """The deleted ``batched`` backend is an unknown mode now."""
        import dataclasses

        from repro.config import REPLAY_MODES
        from repro.errors import ConfigError

        with pytest.raises(ConfigError) as exc:
            dataclasses.replace(scaled_config(2), replay="batched")
        for mode in REPLAY_MODES:
            assert mode in str(exc.value)

    def test_backends_resolve_to_callables(self):
        """Each mode builds a memory system that replays a trace, with
        the same service levels."""
        import dataclasses

        import numpy as np

        from repro.config import REPLAY_MODES
        from repro.memory.hierarchy import OP_DENSE, MemorySystem, encode_op

        lines = np.arange(0, 4000, 7, dtype=np.int64)
        ops = np.full(lines.shape[0], encode_op(OP_DENSE, False, 1))
        levels = {
            mode: MemorySystem(
                dataclasses.replace(scaled_config(2), replay=mode)
            ).replay_trace(1, lines, ops).tolist()
            for mode in REPLAY_MODES
        }
        assert levels["scalar"] == levels["array"]

    def test_degradation_ladder_fastest_first(self):
        # One step: the requested (fast) rung, then the scalar oracle.
        from repro.config import EXECUTION_MODES, REPLAY_MODES
        from repro.resilience import RunSupervisor

        assert EXECUTION_MODES == ("scalar", "vectorized")
        sup = RunSupervisor()
        for execution in EXECUTION_MODES:
            for replay in REPLAY_MODES:
                rungs = sup._ladder(execution, replay)
                assert rungs[0] == (execution, replay)
                if execution == "scalar":
                    assert len(rungs) == 1
                else:
                    assert rungs[1:] == (("scalar", "scalar"),)
