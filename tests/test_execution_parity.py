"""Differential parity: vectorized execution vs the scalar oracle.

The vectorized backend derives the post-VRF trace in one compiled call
per PE-epoch, with protected-run elision.  It must be *bit-identical*
to the scalar per-nonzero oracle on every observable: the emitted trace
(content and order), numeric outputs, simulated time, AccessStats,
per-epoch PECounters, and the VRF's own hit/miss/writeback counters
(elision bulk-credits skipped hits, so these pin that accounting too).

Every run happens with the compiled kernels (VRF walk, cache walk and
merges) and with the library refused, forced by patching the loader's
memo for the duration of the run (a test-only switch; the simulator
picks the kernels by whether the library loads).  Refused, vectorized
execution runs the scalar executor and the replay and merges their
Python paths.  The oracle runs with the kernels loaded; its run with
the library refused must match it too.  A checkpointed SpMM run killed
under one path and resumed under the other must match the
uninterrupted oracle as well: the resume restores the output
accumulator partway through the run.

Two whole-run checks sit beside them: a 30k-nonzero run gives the same
facts with the library loaded and refused; and two seeded smoke
workloads give the same facts, final cache state included, under each
distinct execution and replay pair, byte-identical in two processes
with different string-hash seeds.

Test ids name the replay mode of ``repro.config.REPLAY_MODES``: under
``scalar`` the vectorized engine replays its generated traces one
access at a time, under ``array`` each epoch's traces in one call.  The
scalar oracle issues every access directly under either replay mode.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np
import pytest

from repro import native
from repro.config import (
    EXECUTION_MODES,
    REPLAY_MODES,
    ResilienceConfig,
    scaled_config,
)
from repro.core import engine as engine_module
from repro.core.accelerator import KernelSettings, SpadeSystem
from repro.core.bypass import BypassPolicy
from repro.core.cpe import ScheduleParams
from repro.core.engine import Engine
from repro.core.instructions import Primitive
from repro.core.pe import ProcessingElement
from repro.memory.hierarchy import TRACE_REGIONS, MemorySystem
from repro.resilience import (
    ChaosConfig,
    ChaosMonkey,
    InjectedCrash,
    RunSupervisor,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.generators import rmat_graph, uniform_random
from repro.sparse.tiled import tile_matrix
from tests.walks import WALKS, kernels

MODES = ("vectorized",)


def _run_engine(
    a,
    k: int,
    kernel: str,
    execution: str,
    replay: str,
    settings: Optional[KernelSettings] = None,
    chunk_nnz: int = 256,
):
    """Build an Engine directly (so PEs stay reachable) and run once."""
    cfg = dataclasses.replace(
        scaled_config(4, cache_shrink=8), execution=execution,
        replay=replay,
    )
    settings = settings or KernelSettings.base()
    system = SpadeSystem(cfg, chunk_nnz=chunk_nnz)
    tiled = tile_matrix(
        a, settings.row_panel_size, settings.col_panel_size
    )
    prim = Primitive.SPMM if kernel == "spmm" else Primitive.SDDMM
    amap = system._build_address_map(tiled, k, prim)
    init = system.cpe.make_initialization(
        prim,
        amap,
        rmatrix_bypass=settings.rmatrix_bypass,
        cmatrix_bypass=False,
        dense_row_size=k,
    )
    policy = BypassPolicy(
        rmatrix_bypass=settings.rmatrix_bypass,
        sparse_stream_bypass=settings.sparse_stream_bypass,
        sddmm_output_bypass=settings.sddmm_output_bypass,
    )
    schedule = system.cpe.build_schedule(
        tiled,
        ScheduleParams(
            use_barriers=settings.use_barriers,
            barrier_group_cols=settings.barrier_group_cols,
        ),
    )
    engine = Engine(cfg, tiled, init, amap, policy, chunk_nnz)
    rng = np.random.default_rng(7)
    if kernel == "spmm":
        b = rng.random((a.num_cols, k), dtype=np.float32)
        result = engine.run_spmm(schedule, b)
        out = result.output_dense
    else:
        b = rng.random((a.num_rows, k), dtype=np.float32)
        c = rng.random((a.num_cols, k), dtype=np.float32)
        result = engine.run_sddmm(schedule, b, c)
        out = result.output_vals
    return engine, result, out


def _fingerprint(engine: Engine, result, out):
    return {
        "time_ns": result.time_ns,
        "stats": dataclasses.asdict(result.stats),
        "counters": result.counters,
        "epoch_counters": engine._epoch_counters,
        "vrf": [
            (
                pe.vrf.tag_hits,
                pe.vrf.tag_misses,
                pe.vrf.evictions,
                pe.vrf.manager_writebacks,
                pe.vrf.eviction_writebacks,
            )
            for pe in engine.pes
        ],
    }


def _assert_same(a, k, kernel, replay, settings=None, chunk_nnz=256):
    eng_o, res_o, out_o = _run_engine(
        a, k, kernel, "scalar", replay, settings, chunk_nnz
    )
    fp_o = _fingerprint(eng_o, res_o, out_o)
    for mode in ("scalar",) + MODES:
        for walk in WALKS:
            if (mode, walk) == ("scalar", "native"):
                continue  # the oracle run itself
            with kernels(walk):
                eng_m, res_m, out_m = _run_engine(
                    a, k, kernel, mode, replay, settings, chunk_nnz
                )
            assert np.array_equal(out_o, out_m), (
                f"{mode}/{walk}: output diverged"
            )
            assert _fingerprint(eng_m, res_m, out_m) == fp_o, (
                f"{mode}/{walk}: state fingerprint diverged"
            )


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=8, seed=42)


@pytest.fixture(scope="module")
def rect():
    return uniform_random(num_rows=256, num_cols=192, nnz=6_000, seed=13)


class TestExecutionParity:
    @pytest.mark.parametrize("replay", REPLAY_MODES)
    @pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
    def test_modes_bit_identical(self, graph, kernel, replay):
        _assert_same(graph, 16, kernel, replay)

    def test_rmatrix_bypass(self, rect):
        _assert_same(
            rect, 16, "spmm", "array",
            KernelSettings(rmatrix_bypass=True),
        )

    def test_cached_sparse_stream(self, rect):
        # Pre-CFG4 sparse path: the stream goes through the caches, so
        # the sparse ops take the dense-cached branch of the generators.
        _assert_same(
            rect, 16, "sddmm", "array",
            KernelSettings(sparse_stream_bypass=False),
        )

    def test_sddmm_output_through_caches(self, rect):
        _assert_same(
            rect, 16, "sddmm", "scalar",
            KernelSettings(sddmm_output_bypass=False),
        )

    def test_barrier_epochs(self, graph):
        _assert_same(
            graph, 16, "spmm", "array",
            KernelSettings(
                row_panel_size=64, col_panel_size=64, use_barriers=True
            ),
        )

    def test_wide_rows_disable_elision(self, rect):
        # K=256 -> 16 lines/row: the elision cadence degenerates to 1
        # (the VRF cannot protect a run), so the generators must fall
        # back to streaming every access and still match the oracle.
        _assert_same(rect, 256, "spmm", "array")
        _assert_same(rect, 256, "sddmm", "array")

    def test_tiny_chunks(self, rect):
        # chunk_nnz smaller than typical row runs: runs split across
        # chunk boundaries exercise the first/last-touch rules.
        _assert_same(rect, 16, "spmm", "array", chunk_nnz=17)


    @pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
    def test_zero_nnz_parts_leave_state_alone(self, rect, kernel):
        from repro.core.vectorized import (
            generate_sddmm_epoch,
            generate_spmm_epoch,
        )

        if native.vrf_epoch_kernel() is None:
            pytest.skip("compiled trace generator unavailable")
        eng, _, _ = _run_engine(rect, 16, kernel, "vectorized", "array")
        pe = eng.pes[0]

        def state():
            v = pe.vrf
            return (v.tag_hits, v.tag_misses, list(v._tags.items()),
                    dataclasses.asdict(pe.counters), len(pe._trace))

        before = state()
        e = np.zeros(0, dtype=np.int64)
        chunks = np.zeros((2, 3), dtype=np.int64)
        if kernel == "spmm":
            segs = generate_spmm_epoch(pe, e, e, chunks)
        else:
            segs = generate_sddmm_epoch(pe, e, e, chunks)
        assert segs == [(before[-1], before[-1])] * 2
        assert state() == before


def test_spmm_merge_keeps_dispatch_order():
    """Float64 sums that depend on their order: one output row gets
    ``2**60``, ``-2**60`` and ``1`` (times a B row of ones) from three
    one-nonzero chunks of one epoch.  In dispatch order the row sums to
    1; an epoch merge that took the chunks in another order would lose
    the 1 and give 0.  Vectorized execution must give the oracle's
    bytes."""
    rng = np.random.default_rng(2)
    n = 64
    filler = rng.choice(np.arange(n, n * n), size=300, replace=False)
    rows = np.concatenate([[0, 0, 0], filler // n])
    cols = np.concatenate([[0, 1, 2], filler % n])
    vals = np.concatenate([
        [2.0**60, -(2.0**60), 1.0], rng.random(300),
    ]).astype(np.float32)
    a = COOMatrix(n, n, rows, cols, vals)
    b = np.ones((n, 16), dtype=np.float32)
    out = {}
    for execution in EXECUTION_MODES:
        cfg = dataclasses.replace(scaled_config(4), execution=execution)
        report = SpadeSystem(cfg, chunk_nnz=1).spmm(a, b)
        assert len(report.result.epoch_timings) == 1
        out[execution] = report.output
    assert out["scalar"][0, 0] == 1.0
    assert out["vectorized"].tobytes() == out["scalar"].tobytes()


class TestNoLibraryFallback:
    """Without the compiled library, vectorized execution is the scalar
    executor: it walks chunk by chunk, never calls the epoch generators,
    and its chaos faults still target the requested backend.  (The
    generators themselves refuse without the library:
    ``tests/test_native_loader.py``.)"""

    @pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
    def test_vectorized_runs_the_scalar_executor(
        self, rect, kernel, monkeypatch
    ):
        calls = {"chunks": 0}
        name = f"execute_{kernel}_chunk"
        execute = getattr(ProcessingElement, name)

        def counting(pe, *args):
            calls["chunks"] += 1
            return execute(pe, *args)

        def refuse(*args):
            raise AssertionError("generated an epoch without the library")

        oracle = _run_engine(rect, 16, kernel, "scalar", "array")
        with kernels("python"):
            monkeypatch.setattr(ProcessingElement, name, counting)
            monkeypatch.setattr(engine_module, f"generate_{kernel}_epoch",
                                refuse)
            eng, res, out = _run_engine(rect, 16, kernel, "vectorized",
                                        "array")
        assert eng.execution == "vectorized"
        assert calls["chunks"] > 0
        assert out.tobytes() == oracle[2].tobytes()
        assert _fingerprint(eng, res, out) == _fingerprint(*oracle)

    def test_chaos_faults_still_fire_and_degrade(self, rect):
        b = np.random.default_rng(7).random(
            (rect.num_cols, 16), dtype=np.float32
        )
        cfg = dataclasses.replace(scaled_config(4), execution="vectorized")
        want = SpadeSystem(
            dataclasses.replace(cfg, execution="scalar")
        ).spmm(rect, b)
        monkey = ChaosMonkey(
            ChaosConfig(worker_fault_rate=1.0, fault_backends=("vectorized",))
        )
        sup = RunSupervisor(chaos=monkey, sleep=lambda s: None)
        with kernels("python"):
            report = sup.run_kernel(cfg, "spmm", rect, b)
        outcome = sup.last_outcome
        assert monkey.worker_faults_injected > 0
        assert outcome.requested_backend == "vectorized"
        assert outcome.backend == "scalar"
        assert outcome.degradations == 1
        assert report.output.tobytes() == want.output.tobytes()
        assert report.time_ns == want.time_ns


class TestResumeParity:
    """Kill a checkpointed SpMM run under one merge path, resume it
    under the other: the restored accumulator keeps accumulating to the
    oracle's bytes, for every execution mode."""

    @staticmethod
    def _spmm(graph, execution, walk, chaos=None, **resilience):
        cfg = dataclasses.replace(
            scaled_config(4, cache_shrink=8), execution=execution,
            resilience=ResilienceConfig(**resilience),
        )
        b = np.random.default_rng(7).random(
            (graph.num_cols, 16), dtype=np.float32
        )
        settings = KernelSettings(
            row_panel_size=32, col_panel_size=64, use_barriers=True
        )
        with kernels(walk):
            report = SpadeSystem(cfg, chaos=chaos).spmm(
                graph, b, settings=settings
            )
        return report.result

    @pytest.fixture(scope="class")
    def oracle(self, graph):
        result = self._spmm(graph, "scalar", "native")
        assert len(result.epoch_timings) >= 3
        return result

    @pytest.mark.parametrize("killed, resumed", [
        ("native", "python"), ("python", "native"),
    ])
    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    def test_resume_across_merge_paths(
        self, graph, oracle, tmp_path, execution, killed, resumed
    ):
        chaos = ChaosMonkey(ChaosConfig(kill_after_epoch=1))
        with pytest.raises(InjectedCrash):
            self._spmm(graph, execution, killed, chaos,
                       checkpoint_dir=str(tmp_path))
        assert list(tmp_path.glob("ckpt-epoch-*.ckpt"))
        got = self._spmm(graph, execution, resumed,
                         checkpoint_dir=str(tmp_path), resume=True)
        assert got.output_dense.tobytes() == oracle.output_dense.tobytes()
        assert got.time_ns == oracle.time_ns
        assert got.counters == oracle.counters


class TestVrfWalkInvariance:
    """A whole run at engine scale (30k nonzeros in 8k-nonzero chunks,
    so the compiled VRF walk elides long protected runs that the scalar
    executor, run without the library, walks one by one) gives the same
    output bytes, simulated time, AccessStats and counters with the
    compiled kernels loaded and refused."""

    @pytest.fixture(scope="class")
    def workload(self):
        a = uniform_random(num_rows=1024, num_cols=256, nnz=30_000, seed=3)
        rng = np.random.default_rng(7)
        b = rng.random((a.num_rows, 16), dtype=np.float32)
        c = rng.random((a.num_cols, 16), dtype=np.float32)
        return a, b, c

    @staticmethod
    def _facts(kernel, a, b, c):
        system = SpadeSystem(
            scaled_config(4, cache_shrink=8), chunk_nnz=8192
        )
        if kernel == "spmm":
            report = system.spmm(a, c)
        else:
            report = system.sddmm(a, b, c)
        return (
            report.output.tobytes(),
            report.result.time_ns,
            dataclasses.asdict(report.stats),
            report.counters,
        )

    @pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
    def test_python_walk_matches_compiled_walk(self, workload, kernel):
        if native.vrf_epoch_kernel() is None:
            pytest.skip("compiled VRF walk unavailable")
        facts = {}
        for walk in WALKS:
            with kernels(walk):
                facts[walk] = self._facts(kernel, *workload)
                assert native.kernels_impl() == walk
        assert facts["python"] == facts["native"]


_FACTS_CHILD = """
import dataclasses, hashlib, json, pickle
import numpy as np
import repro.core.accelerator as accelerator
from repro.config import scaled_config
from repro.sparse.generators import rmat_graph, uniform_random

engines = []

class KeptEngine(accelerator.Engine):
    # SpadeSystem drops its engine after a run; keep it, so the final
    # memory hierarchy stays reachable.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        engines.append(self)

accelerator.Engine = KeptEngine

def sha(data):
    return hashlib.sha256(data).hexdigest()

def facts(report):
    # state_dict lists every set's residents in LRU order and the
    # region traffic sorted by name, so its pickle is one byte string
    # whichever backend replayed.
    memory = pickle.dumps(engines[-1].memory.state_dict())
    return {
        "output_sha256": sha(np.ascontiguousarray(report.output).tobytes()),
        "time_ns": report.result.time_ns,
        "requests": report.counters.total_requests,
        "stats": dataclasses.asdict(report.stats),
        "counters": dataclasses.asdict(report.counters),
        "memory_sha256": sha(memory),
    }

rng = np.random.default_rng(7)
a = uniform_random(512, 256, nnz=20_000, seed=11)
b = rng.random((a.num_rows, 16), dtype=np.float32)
c = rng.random((a.num_cols, 16), dtype=np.float32)
g = rmat_graph(9, edge_factor=8, seed=5)
d = rng.random((g.num_cols, 16), dtype=np.float32)
runs = {}
for pair in (("vectorized", "array"), ("vectorized", "scalar"),
             ("scalar", "scalar")):
    cfg = dataclasses.replace(
        scaled_config(8), execution=pair[0], replay=pair[1]
    )
    system = accelerator.SpadeSystem(cfg)
    runs[pair] = {
        "sddmm": facts(system.sddmm(a, b, c)),
        "spmm": facts(system.spmm(g, d)),
    }
first = runs["vectorized", "array"]
for pair, got in runs.items():
    diverged = [
        (kernel, key) for kernel in first for key in first[kernel]
        if got[kernel][key] != first[kernel][key]
    ]
    assert not diverged, f"{pair} diverged from the array replay: {diverged}"
print(json.dumps(first, sort_keys=True))
"""


class TestCrossProcessDeterminism:
    """Two seeded smoke workloads (a 20k-nonzero uniform SDDMM and an
    RMAT scale-9 SpMM, K=16 on 8 PEs) give the same simulated facts
    under the ``(vectorized, array)``, ``(vectorized, scalar)`` and
    ``(scalar, scalar)`` execution and replay pairs: output sha256,
    simulated time, request counts, AccessStats, counters and a sha256
    of the final memory hierarchy's state with its LRU order.  Run in
    two processes with different string-hash seeds, the facts are
    byte-identical."""

    def test_facts_identical_across_hash_seeds(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-c", _FACTS_CHILD], env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert json.loads(outs[0])["sddmm"]["requests"] > 0
        assert outs[0] == outs[1]


class TestTraceParity:
    """The traces themselves — content *and* order — must match."""

    @staticmethod
    def _capture_chunks(monkeypatch):
        chunks: List = []
        orig = MemorySystem.replay_trace

        def cap(self, pe_id, lines, ops, region_names=TRACE_REGIONS):
            chunks.append(
                (pe_id, np.array(lines).tolist(), np.array(ops).tolist())
            )
            return orig(self, pe_id, lines, ops, region_names)

        monkeypatch.setattr(MemorySystem, "replay_trace", cap)
        return chunks

    @staticmethod
    def _capture_accesses(monkeypatch):
        calls: List = []
        d_orig = MemorySystem.dense_access
        s_orig = MemorySystem.stream_access

        def dense(self, pe_id, line, is_write=False, bypass=False,
                  region=None):
            calls.append(
                ("dense", pe_id, line, bool(is_write), bool(bypass), region)
            )
            return d_orig(self, pe_id, line, is_write, bypass, region)

        def stream(self, pe_id, line, is_write=False, region=None):
            calls.append(("stream", pe_id, line, bool(is_write), region))
            return s_orig(self, pe_id, line, is_write, region)

        monkeypatch.setattr(MemorySystem, "dense_access", dense)
        monkeypatch.setattr(MemorySystem, "stream_access", stream)
        return calls

    @staticmethod
    def _flatten(chunks) -> List:
        # The fused drivers may merge consecutive same-PE replay calls
        # into one (coalesced dispatch), so per-call boundaries are not
        # an observable.  The per-access (pe_id, line, op) sequence in
        # call order *is*: shared levels (L2/STLB/LLC/DRAM) see exactly
        # this interleaving, so it must match the oracle bit-for-bit.
        # An epoch-grain call carries its runs ``(pe, lo, hi)``.
        flat: List = []
        for pe_id, lines, ops in chunks:
            runs = [(pe_id, 0, len(lines))] if np.ndim(pe_id) == 0 else pe_id
            for pe, lo, hi in runs:
                flat.extend((pe, line, op) for line, op in zip(
                    lines[lo:hi], ops[lo:hi]
                ))
        return flat

    @pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
    def test_batched_chunk_stream_identical(
        self, graph, kernel, monkeypatch
    ):
        # The vectorized backend hands the same access stream to
        # replay_trace whether it replays an epoch in one array call or
        # run by run under scalar replay; the scalar-replay stream is
        # held to the oracle's per-access calls below.  Without the
        # library it is the scalar executor and hands over none.
        streams = {}
        for replay in REPLAY_MODES:
            for walk in WALKS:
                with monkeypatch.context() as mp, kernels(walk):
                    chunks = self._capture_chunks(mp)
                    _run_engine(graph, 16, kernel, "vectorized", replay)
                    streams[replay, walk] = self._flatten(chunks)
        assert streams["scalar", "python"] == streams["array", "python"] == []
        if native.vrf_epoch_kernel() is None:
            pytest.skip("compiled trace generator unavailable")
        assert streams["scalar", "native"]
        assert streams["array", "native"] == streams["scalar", "native"], (
            "array replay access stream diverged"
        )

    @pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
    def test_scalar_replay_access_stream_identical(
        self, rect, kernel, monkeypatch
    ):
        # With replay="scalar" the oracle issues accesses directly while
        # the vectorized backend replays its derived trace through
        # replay_trace_scalar — the resulting per-access call sequences
        # must be indistinguishable.
        streams = {}
        runs = [("scalar", "native")] + [
            (mode, walk) for mode in MODES for walk in WALKS
        ]
        for mode, walk in runs:
            with monkeypatch.context() as mp, kernels(walk):
                calls = self._capture_accesses(mp)
                _run_engine(rect, 16, kernel, mode, "scalar")
                streams[mode, walk] = calls
        for key in runs[1:]:
            assert streams[key] == streams["scalar", "native"], (
                f"{key}: access stream diverged"
            )

    @pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
    def test_scalar_oracle_ignores_replay_mode(
        self, rect, kernel, monkeypatch
    ):
        # execution="scalar" is the oracle end to end: under
        # replay="array" it still issues every access itself, never
        # hands a trace to replay_trace, and gives the same bytes.
        eng_o, res_o, out_o = _run_engine(rect, 16, kernel, "scalar", "scalar")
        with monkeypatch.context() as mp:
            chunks = self._capture_chunks(mp)
            eng_a, res_a, out_a = _run_engine(
                rect, 16, kernel, "scalar", "array"
            )
        assert chunks == []
        assert out_a.tobytes() == out_o.tobytes()
        assert _fingerprint(eng_a, res_a, out_a) == _fingerprint(
            eng_o, res_o, out_o
        )
