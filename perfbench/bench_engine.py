"""Engine workloads: ``SpadeSystem.spmm`` / ``SpadeSystem.sddmm``.

No execution or replay mode is pinned: the system runs whatever
``scaled_config`` selects, as ``repro run`` does.  Every call is checked
twice, the way a hardware test bench checks a run against its golden
output: against the NumPy reference kernels, and against the simulated
facts (output digest, simulated time, AccessStats, PECounters) that the
scalar oracle produced for the same inputs, pinned in ``oracle.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time

import numpy as np

import spans
from common import HERE, Outcome, p95, peak_rss_mb, timed_setup

PES = 8
MIN_CALLS = 3

SPECS = {
    # workload: (kernel, K, chunk_nnz)
    "engine-sddmm-uniform": ("sddmm", 16, 32768),
    "engine-spmm-rmat": ("spmm", 64, 4096),
}


def make_inputs(workload: str, seed: int):
    """The sparse matrix and dense operands: a pure function of seed."""
    from repro.sparse.generators import rmat_graph, uniform_random

    kernel, k, _ = SPECS[workload]
    rng = np.random.default_rng(seed)
    if kernel == "sddmm":
        a = uniform_random(8192, 256, nnz=1_000_000, seed=seed)
        return a, (
            rng.random((a.num_rows, k), dtype=np.float32),
            rng.random((a.num_cols, k), dtype=np.float32),
        )
    a = rmat_graph(13, edge_factor=16, seed=seed)
    return a, (rng.random((a.num_cols, k), dtype=np.float32),)


def make_system(workload: str, config=None, ledger=None):
    from repro.config import scaled_config
    from repro.core.accelerator import SpadeSystem

    return SpadeSystem(
        config or scaled_config(PES), chunk_nnz=SPECS[workload][2],
        ledger=ledger,
    )


def call(system, workload: str, a, operands):
    return getattr(system, SPECS[workload][0])(a, *operands)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def facts(report) -> dict:
    """The simulated facts a faster simulator must reproduce exactly."""
    return {
        "output_sha256": _sha256(
            np.ascontiguousarray(report.output).tobytes()
        ),
        "time_ns": repr(float(report.time_ns)),
        "stats_sha256": _sha256(json.dumps(
            dataclasses.asdict(report.stats), sort_keys=True
        ).encode()),
        "counters_sha256": _sha256(json.dumps(
            dataclasses.asdict(report.counters), sort_keys=True
        ).encode()),
        "requests": int(report.counters.total_requests),
    }


def scalar_oracle(workload: str, seed: int) -> dict:
    """Facts from the scalar execution and scalar replay oracle."""
    from repro.config import scaled_config

    config = dataclasses.replace(
        scaled_config(PES), execution="scalar", replay="scalar"
    )
    a, operands = make_inputs(workload, seed)
    return facts(call(make_system(workload, config), workload, a, operands))


def pinned_oracle(workload: str, seed: int):
    table = json.loads((HERE / "oracle.json").read_text())
    return table.get(workload, {}).get(str(seed))


class ReferenceCheck:
    """Compares a report's output with ``repro.kernels.reference``."""

    def __init__(self, workload: str, a, operands) -> None:
        from repro.core.accelerator import KernelSettings
        from repro.kernels.reference import sddmm_reference, spmm_reference
        from repro.sparse.coo import COOMatrix
        from repro.sparse.tiled import tile_matrix

        self.kernel = SPECS[workload][0]
        if self.kernel == "spmm":
            self.expected = spmm_reference(a, *operands)
            return
        # The SDDMM output is in the tiled, padded layout; compare it in
        # the tiled nonzero order.
        base = KernelSettings.base()
        t = tile_matrix(a, base.row_panel_size, base.col_panel_size)
        self.tiled = t
        self.expected = sddmm_reference(
            COOMatrix(t.num_rows, t.num_cols, t.r_ids, t.c_ids, t.vals),
            *operands,
        ).vals

    def ok(self, report) -> bool:
        got = report.output
        if self.kernel == "sddmm":
            from repro.core.accelerator import sddmm_output_to_coo

            got = sddmm_output_to_coo(self.tiled, got).vals
        # Accumulation order differs from the reference's; float32
        # results may differ in the last place.
        return got.shape == self.expected.shape and bool(
            np.allclose(got, self.expected, rtol=1e-5, atol=1e-6)
        )


def _loop(speed, system, workload, a, operands, seconds, check):
    """Call the kernel for ``seconds`` (at least MIN_CALLS times); the
    call times, scaled to nominal host speed."""
    times, raw = [], []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_CALLS or time.perf_counter() < deadline:
        wall, scaled, report = speed.timed(
            lambda: call(system, workload, a, operands)
        )
        times.append(scaled)
        raw.append(wall)
        check(report)
    return times, raw


def run(workload: str, seed: int, seconds: float, trace: bool, work,
        speed) -> Outcome:
    out = Outcome()

    def build():
        a, operands = make_inputs(workload, seed)
        system = make_system(workload)
        call(system, workload, a, operands)  # warm-up call
        return system, a, operands

    setup_s, (system, a, operands) = timed_setup(speed, build)
    reference = ReferenceCheck(workload, a, operands)
    seen = []
    requests = []

    def check(report) -> None:
        out.check(
            0 if reference.ok(report) else 1, 1,
            "kernel outputs differ from repro.kernels.reference",
        )
        seen.append(facts(report))
        requests.append(report.counters.total_requests)

    budget = seconds / 2 if trace else seconds
    walls, raw = _loop(speed, system, workload, a, operands, budget, check)
    out.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": statistics.median(
            n / wall for n, wall in zip(requests, walls)
        ),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_p95_ms": p95(walls) * 1e3,
    }
    out.report["untraced_call_s"] = walls
    out.report["untraced_call_wall_s"] = raw
    if trace:
        _traced(speed, workload, a, operands, budget, walls, check, out, work)

    oracle, source = pinned_oracle(workload, seed), "pinned"
    if oracle is None:
        oracle, source = scalar_oracle(workload, seed), "live scalar run"
    wrong = sum(1 for f in seen if f != oracle)
    if wrong:
        out.failed += wrong
        out.problems.append(
            f"{wrong}/{len(seen)} calls differ from the scalar oracle "
            f"({source})"
        )
    out.report["oracle"] = {"source": source, "facts": oracle}
    return out


def _traced(speed, workload, a, operands, seconds, untraced, check, out,
            work):
    """Timed calls again, with layer wrappers and the run ledger on."""
    from repro.obs.ledger import RunLedger

    ledger_path = work / "ledger" / "engine.jsonl"
    ledger = RunLedger(ledger_path)
    system = make_system(workload, ledger=ledger)
    recorder = spans.Recorder()
    recorder.install()
    try:
        walls, _ = _loop(speed, system, workload, a, operands, seconds,
                         check)
    finally:
        recorder.uninstall()
        ledger.close()
    layers = spans.layer_metrics([(recorder.spans, recorder.facts)])
    summary = spans.ledger_summary([ledger_path])
    out.per_layer.update(layers)
    out.per_layer.update(spans.sim_metrics(recorder.facts))
    out.per_layer.update(
        spans.replay_split(summary, layers["memory.replay_s"], len(walls))
    )
    out.per_layer["trace.overhead_frac"] = (
        statistics.median(walls) / statistics.median(untraced) - 1.0
    )
    calls = len(walls)
    out.report["traced_call_s"] = walls
    out.report["ledger"] = {
        "dispatch_events": summary["dispatch_events"],
        "epoch_phases_s_per_call": {
            k: v / calls for k, v in summary["epoch_phases_s"].items()
        },
    }
    out.report["spans"] = recorder.spans
