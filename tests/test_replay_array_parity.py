"""Differential parity: array replay vs the scalar oracle.

The array replay backend (``replay="array"``,
``repro.memory.replay_array``) replays an epoch in one compiled call,
or run by run through the oracle where the library does not load.  It
must be *bit-identical* to the scalar oracle — same AccessStats
counters at every level, same per-access service levels, same LRU
orders and dirty bits, same kernel outputs — under every execution
backend, bypass configuration, and barrier schedule, either way.

Two layers:

* **MemorySystem traces** — randomized interleaved dense/bypass/stream
  op traces at L1-resident, L2-resident, and DRAM-heavy footprints,
  with the compiled call (``auto``: what the host loads) and with the
  library refused (``forced``).
* **End-to-end kernels** — SpMM and SDDMM through ``SpadeSystem`` on
  both execution backends (scalar, vectorized), with bypass
  on/off and a barrier-heavy schedule, comparing the full stats
  surface plus an output digest.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import scaled_config
from repro.core.accelerator import KernelSettings, SpadeSystem
from repro.memory.hierarchy import MemorySystem
from repro.sparse.generators import rmat_graph, uniform_random

from tests.test_memory_batched_parity import (
    random_op_trace,
    scalar_system_replay,
    system_state,
)
from tests.walks import kernels


@pytest.fixture
def force_twin():
    """Run the test with the Python twins of the compiled walks."""
    with kernels("python"):
        yield


# ---------------------------------------------------------------------------
# MemorySystem trace parity
# ---------------------------------------------------------------------------


def _two_way(footprint: int, chunks: int = 6, n: int = 2500):
    cfg = scaled_config(4, cache_shrink=8)
    ms_s = MemorySystem(dataclasses.replace(cfg, replay="scalar"))
    ms_a = MemorySystem(dataclasses.replace(cfg, replay="array"))
    rng = np.random.default_rng(footprint)
    for chunk_idx in range(chunks):
        pe_id = int(rng.integers(0, cfg.num_pes))
        lines, ops = random_op_trace(rng, n, footprint)
        lv_s = scalar_system_replay(ms_s, pe_id, lines, ops)
        lv_a = ms_a.replay_trace(pe_id, lines, ops)
        assert np.array_equal(lv_s, lv_a), (
            f"array levels diverged in chunk {chunk_idx}"
        )
    assert dataclasses.asdict(ms_s.collect_stats()) == dataclasses.asdict(
        ms_a.collect_stats()
    )
    assert system_state(ms_s) == system_state(ms_a)
    return ms_s, ms_a


@pytest.mark.parametrize(
    "footprint", [64, 512, 1 << 13, 1 << 17],
    ids=["tiny", "l1_resident", "l2_resident", "dram_heavy"],
)
def test_replay_trace_parity_auto(footprint):
    """The walk this host loads (the compiled kernel where gcc exists)
    matches the oracle."""
    _two_way(footprint)


@pytest.mark.parametrize(
    "footprint", [64, 512, 1 << 13, 1 << 17],
    ids=["tiny", "l1_resident", "l2_resident", "dram_heavy"],
)
def test_replay_trace_parity_forced(footprint, force_twin):
    """With the Python twin forced, every level walks through
    ``Cache.access``; results match the oracle."""
    _two_way(footprint)


def test_replay_then_flush_parity():
    """Flush after array replay, with the kernel loaded and with the
    twin forced: identical dirty lines, writebacks, and flush
    accounting."""
    for walk in ("native", "python"):
        with kernels(walk):
            ms_s, ms_a = _two_way(4096, chunks=3, n=4000)
        assert ms_s.flush_all() == ms_a.flush_all()
        assert dataclasses.asdict(ms_s.collect_stats()) == dataclasses.asdict(
            ms_a.collect_stats()
        )


@pytest.mark.parametrize("walk", ["native", "python"])
def test_falsy_region_names_record_no_traffic(walk):
    """A region named ``None``, ``""`` or ``0`` records no DRAM traffic
    by name, as the oracle's ``_dram_read`` and ``_dram_write`` skip
    it; the DRAM counters still count it."""
    names = (None, "", 0, "dense")
    cfg = scaled_config(4, cache_shrink=8)
    rng = np.random.default_rng(11)
    lines, ops = random_op_trace(rng, 3000, 1 << 14)
    ms_s = MemorySystem(dataclasses.replace(cfg, replay="scalar"))
    ms_a = MemorySystem(dataclasses.replace(cfg, replay="array"))
    want = ms_s.replay_trace(2, lines, ops, names)
    with kernels(walk):
        got = ms_a.replay_trace(2, lines, ops, names)
    assert np.array_equal(got, want)
    assert ms_a._region_traffic == ms_s._region_traffic
    assert list(ms_a._region_traffic) == ["dense"]
    assert (ms_a.dram.reads, ms_a.dram.writes) == (
        ms_s.dram.reads, ms_s.dram.writes,
    )


# ---------------------------------------------------------------------------
# End-to-end kernel parity through SpadeSystem
# ---------------------------------------------------------------------------

K = 16

SETTINGS = {
    "default": None,
    "bypass_off": KernelSettings(
        rmatrix_bypass=False,
        sparse_stream_bypass=False,
        sddmm_output_bypass=False,
    ),
    "bypass_on": KernelSettings(rmatrix_bypass=True),
    "barrier_heavy": KernelSettings(
        row_panel_size=32,
        col_panel_size=32,
        use_barriers=True,
        barrier_group_cols=2,
    ),
}


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=8, edge_factor=8, seed=42)


@pytest.fixture(scope="module")
def rect():
    return uniform_random(num_rows=256, num_cols=192, nnz=6_000, seed=13)


def _run(a, kernel, replay, execution="vectorized", settings=None):
    cfg = dataclasses.replace(
        scaled_config(4, cache_shrink=8),
        replay=replay,
        execution=execution,
    )
    system = SpadeSystem(cfg)
    rng = np.random.default_rng(7)
    if kernel == "spmm":
        b = rng.random((a.num_cols, K), dtype=np.float32)
        return system.spmm(a, b, settings=settings)
    b = rng.random((a.num_rows, K), dtype=np.float32)
    c = rng.random((a.num_cols, K), dtype=np.float32)
    return system.sddmm(a, b, c, settings=settings)


def _fingerprint(report) -> dict:
    """The full comparison surface: simulated time, every AccessStats
    counter, merged PE counters, and the raw output bytes."""
    result = report.result
    out = (
        result.output_dense
        if result.output_dense is not None
        else result.output_vals
    )
    return {
        "time_ns": result.time_ns,
        "stats": dataclasses.asdict(result.stats),
        "counters": dataclasses.asdict(result.counters),
        "dirty_lines_flushed": result.dirty_lines_flushed,
        "epochs": len(result.epoch_timings),
        "output_sha256": hashlib.sha256(
            np.ascontiguousarray(out).tobytes()
        ).hexdigest(),
    }


@pytest.mark.parametrize("settings_name", sorted(SETTINGS))
@pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
def test_replay_modes_identical_end_to_end(
    graph, rect, kernel, settings_name
):
    """scalar == array (kernel loaded, twin forced) on the full stats +
    output surface, across bypass configurations and a barrier-heavy
    schedule."""
    a = graph if kernel == "spmm" else rect
    settings = SETTINGS[settings_name]
    want = _fingerprint(_run(a, kernel, "scalar", settings=settings))
    for walk in ("native", "python"):
        with kernels(walk):
            got = _fingerprint(_run(a, kernel, "array", settings=settings))
        assert got == want, f"{kernel}/{settings_name}[array+{walk}]"


@pytest.mark.parametrize("execution", ["scalar", "vectorized"])
@pytest.mark.parametrize("kernel", ["spmm", "sddmm"])
def test_array_replay_under_all_execution_backends(
    graph, rect, kernel, execution
):
    """Array replay under either execution backend matches the
    (scalar, scalar) reference oracle.  Under ``scalar`` execution the
    replay mode has no effect: the oracle issues every access."""
    a = graph if kernel == "spmm" else rect
    want = _fingerprint(_run(a, kernel, "scalar", execution="scalar"))
    got = _fingerprint(_run(a, kernel, "array", execution=execution))
    assert got == want, f"{kernel}[{execution}+array]"


def test_forced_array_end_to_end(graph, force_twin):
    """With the Python twins forced the kernel run is bit-identical to
    the oracle."""
    want = _fingerprint(_run(graph, "spmm", "scalar"))
    got = _fingerprint(_run(graph, "spmm", "array"))
    assert got == want
