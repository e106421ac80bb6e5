"""Content-addressed epoch-trace store: unit, parity and property tests.

Pins the PR 8 trace-cache contract:

- store round trips (unit tests; corrupt entries are covered by the
  shared corruption suite in ``test_blobstore.py``);
- a warm run replays with **zero generation invocations** and is
  bit-identical to the cold run and to a store-free run (parity);
- the key deliberately excludes cache geometry, replay backend and
  execution mode, so entries populated under one geometry are hits
  under any other and results still match live generation exactly
  (Hypothesis property — the invariance DESIGN.md section 12 argues);
- kill-then-resume through a crash reproduces the uninterrupted run
  bit for bit with the trace cache attached on every attempt.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ResilienceConfig, scaled_config
from repro.core.accelerator import KernelSettings, SpadeSystem
from repro.memory.trace_store import (
    TraceStore,
    canonical_key,
    open_trace_store,
)
from repro.resilience import ChaosConfig, ChaosMonkey, InjectedCrash
from repro.sparse.generators import rmat_graph, uniform_random


def _workload(nnz: int = 30_000, num_rows: int = 1024, seed: int = 3):
    a = uniform_random(num_rows, 256, nnz=nnz, seed=seed)
    rng = np.random.default_rng(7)
    b = rng.random((a.num_rows, 16), dtype=np.float32)
    c = rng.random((a.num_cols, 16), dtype=np.float32)
    return a, b, c


def _run(a, b, c, store=None, execution="vectorized", replay="array",
         cache_shrink=8.0, chunk_nnz=8192):
    cfg = dataclasses.replace(
        scaled_config(4, cache_shrink=cache_shrink),
        execution=execution,
        replay=replay,
    )
    system = SpadeSystem(cfg, chunk_nnz=chunk_nnz, trace_store=store)
    report = system.sddmm(a, b, c)
    return report, dict(system.trace_cache)


def _facts(report):
    return (
        report.output.tobytes(),
        report.result.time_ns,
        dataclasses.asdict(report.stats),
        report.counters,
    )


class TestTraceStoreUnit:
    def _entry(self):
        return {
            "pes": [
                {
                    "lines": np.arange(5, dtype=np.int32),
                    "ops": np.zeros(5, dtype=np.int16),
                    "segs": [(0, 5)],
                }
            ]
        }

    def test_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        key = canonical_key({"m": 1}, epoch=0)
        store.put(key, self._entry())
        hit, entry = store.get(key)
        assert hit
        np.testing.assert_array_equal(
            entry["pes"][0]["lines"], np.arange(5)
        )
        assert entry["pes"][0]["segs"] == [(0, 5)]
        assert store.hits == 1 and store.writes == 1
        assert store.keys() == [key]
        assert len(store) == 1

    def test_missing_key_is_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        hit, entry = store.get("ab" * 32)
        assert not hit and entry is None
        assert store.misses == 1

    def test_key_material_sensitivity(self):
        base = {"nnz": 10, "gen": {"num_pes": 4}}
        assert canonical_key(base, 0) != canonical_key(base, 1)
        changed = {"nnz": 11, "gen": {"num_pes": 4}}
        assert canonical_key(base, 0) != canonical_key(changed, 0)
        # Key ordering inside the material must not matter.
        reordered = {"gen": {"num_pes": 4}, "nnz": 10}
        assert canonical_key(base, 0) == canonical_key(reordered, 0)

    def test_open_trace_store_propagates_none(self, tmp_path):
        assert open_trace_store(None) is None
        assert open_trace_store("") is None
        store = open_trace_store(str(tmp_path / "s"))
        assert isinstance(store, TraceStore)


class TestEngineTraceCacheParity:
    @pytest.mark.parametrize("execution", ["vectorized"])
    def test_cold_warm_and_plain_bit_identical(self, tmp_path, execution):
        a, b, c = _workload()
        cold, cc = _run(a, b, c, TraceStore(tmp_path), execution)
        warm, cw = _run(a, b, c, TraceStore(tmp_path), execution)
        plain, _ = _run(a, b, c, None, execution)
        assert cc["misses"] >= 1 and cc["stored"] >= 1
        assert cc["gen_invocations"] > 0
        assert cw["gen_invocations"] == 0, cw
        assert cw["misses"] == 0 and cw["hits"] >= 1
        assert _facts(cold) == _facts(warm) == _facts(plain)

    def test_scalar_never_probes_the_store(self, tmp_path):
        a, b, c = _workload(nnz=5_000)
        store = TraceStore(tmp_path)
        _, cc = _run(a, b, c, store, execution="scalar")
        assert cc == {
            "hits": 0, "misses": 0, "stored": 0,
            "gen_invocations": 0, "fused_chunks": 0,
        }
        assert len(store) == 0

    def test_shared_across_replay_backends(self, tmp_path):
        a, b, c = _workload()
        cold, _ = _run(a, b, c, TraceStore(tmp_path), replay="array")
        warm, cw = _run(a, b, c, TraceStore(tmp_path), replay="scalar")
        assert cw["gen_invocations"] == 0 and cw["hits"] >= 1
        assert _facts(cold) == _facts(warm)


class TestVrfWalkInvariance:
    """Whether the compiled walks loaded is not part of any key: the
    Python twins and the kernels write the same entries under the same
    keys, and either one's entries serve the other."""

    def test_python_walk_entries_hit_for_native_walk(
        self, tmp_path, monkeypatch
    ):
        from repro import native
        from repro.jobmodel import config_fingerprint

        if native.vrf_epoch_kernel() is None:
            pytest.skip("compiled VRF walk unavailable")
        a, b, c = _workload()
        cfg = scaled_config(4, cache_shrink=8)
        fp_native = config_fingerprint(cfg)
        native_store = TraceStore(tmp_path / "native")
        live, _ = _run(a, b, c, native_store)
        with monkeypatch.context() as mp:
            mp.setattr(native, "_tried", True)
            mp.setattr(native, "_kernels", None)
            assert config_fingerprint(cfg) == fp_native
            twin_store = TraceStore(tmp_path / "python")
            cold, cc = _run(a, b, c, twin_store)
        assert cc["stored"] >= 1
        keys = twin_store.keys()
        assert keys == native_store.keys()
        for key in keys:
            with open(twin_store.path_for(key), "rb") as fh:
                twin_bytes = fh.read()
            with open(native_store.path_for(key), "rb") as fh:
                assert fh.read() == twin_bytes, key
        warm, cw = _run(a, b, c, TraceStore(tmp_path / "python"))
        assert cw["gen_invocations"] == 0 and cw["misses"] == 0, cw
        assert cw["hits"] == len(keys)
        assert _facts(cold) == _facts(warm) == _facts(live)


class TestCacheGeometryInvariance:
    """The content-addressed key excludes cache geometry, so one
    geometry's entries serve every other geometry — and the replayed
    stats under geometry B match live generation under B exactly."""

    @settings(max_examples=6, deadline=None)
    @given(
        shrinks=st.lists(
            st.sampled_from([4.0, 8.0, 16.0, 32.0]),
            min_size=2, max_size=2, unique=True,
        ),
        nnz=st.sampled_from([4_000, 12_000]),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_entries_shared_across_cache_geometries(
        self, tmp_path_factory, shrinks, nnz, seed
    ):
        tmp_path = tmp_path_factory.mktemp("tcache")
        shrink_a, shrink_b = shrinks
        a, b, c = _workload(nnz=nnz, seed=seed)
        _run(a, b, c, TraceStore(tmp_path), cache_shrink=shrink_a)
        warm, cw = _run(
            a, b, c, TraceStore(tmp_path), cache_shrink=shrink_b
        )
        assert cw["gen_invocations"] == 0, (
            f"geometry {shrink_b} missed entries stored under "
            f"{shrink_a}: {cw}"
        )
        assert cw["misses"] == 0 and cw["hits"] >= 1
        live, _ = _run(a, b, c, None, cache_shrink=shrink_b)
        assert _facts(warm) == _facts(live), (
            "cached replay diverged from live generation under the "
            "second geometry"
        )


class TestKillResumeWithTraceCache:
    def test_crash_resume_with_trace_cache_bit_identical(self, tmp_path):
        a = rmat_graph(scale=8, seed=5)
        b = np.random.default_rng(0).random(
            (a.num_cols, 16), dtype=np.float32
        )
        settings_ = KernelSettings(
            row_panel_size=32, col_panel_size=64, use_barriers=True
        )
        base = scaled_config(4, cache_shrink=8)
        cache_dir = tmp_path / "trace-cache"
        ckpt_dir = tmp_path / "checkpoints"

        golden = SpadeSystem(
            base, trace_store=TraceStore(cache_dir)
        ).spmm(a, b, settings=settings_)
        n_epochs = len(golden.result.epoch_timings)
        assert n_epochs >= 3, f"need a multi-epoch run, got {n_epochs}"

        crashing = dataclasses.replace(
            base,
            resilience=ResilienceConfig(checkpoint_dir=str(ckpt_dir)),
        )
        monkey = ChaosMonkey(
            ChaosConfig(kill_after_epoch=n_epochs // 2)
        )
        crash_system = SpadeSystem(
            crashing, chaos=monkey, trace_store=TraceStore(cache_dir)
        )
        with pytest.raises(InjectedCrash):
            crash_system.spmm(a, b, settings=settings_)
        assert crash_system.trace_cache["gen_invocations"] == 0

        resumed_cfg = dataclasses.replace(
            base,
            resilience=ResilienceConfig(
                checkpoint_dir=str(ckpt_dir), resume=True
            ),
        )
        resume_system = SpadeSystem(
            resumed_cfg, trace_store=TraceStore(cache_dir)
        )
        resumed = resume_system.spmm(a, b, settings=settings_)
        assert resume_system.trace_cache["gen_invocations"] == 0
        assert resume_system.trace_cache["misses"] == 0
        assert np.array_equal(resumed.output, golden.output)
        assert resumed.result.time_ns == golden.result.time_ns
        assert dataclasses.asdict(resumed.stats) == dataclasses.asdict(
            golden.stats
        )
        assert resumed.counters == golden.counters
