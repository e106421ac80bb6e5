"""Trace-generation benchmark: scalar vs vectorized engines.

Runs the same seeded SpMM/SDDMM workloads end to end under every
execution backend (``SpadeConfig.execution``):

* **scalar** — the PR 1 oracle: per-nonzero Python loops drive the VRF
  and emit the post-VRF trace access by access;
* **vectorized** — whole-epoch NumPy derivation of each PE's VRF
  access stream with protected-run elision, the compiled VRF walk
  (its Python twin without gcc) for the ``(lines, ops)`` trace, plus
  array functional kernels, replayed one epoch per call (see DESIGN.md
  sections 7 and 12).

Every run asserts bit-identical outputs, simulated time, AccessStats
and PECounters across the two backends before timing is reported, so
the benchmark doubles as an end-to-end differential check.  Results
land in ``BENCH_gen.json`` (see README) to track the perf trajectory.

Methodology: repetitions are **interleaved** (rep loop outside, mode
loop inside) so each scalar/vectorized pair samples the
same machine phase — on busy hosts the phase drift between back-to-back
blocks is larger than the effect being measured.  Speedups are computed
from the per-mode **minimum** across reps, the standard noise-robust
estimator for a deterministic workload (same rationale as ``timeit``);
medians are recorded alongside.  Each timed run also records the
per-epoch host phase split (``gen_s`` / ``merge_s`` / ``replay_s``)
through a throwaway run ledger, so BENCH_gen.json shows *where* the
time went, not just the totals.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_gen_speed.py
    PYTHONPATH=src python benchmarks/bench_gen_speed.py --smoke

This is a standalone script, not a pytest-benchmark module (the
``bench_*`` siblings are run via ``pytest benchmarks``).
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

from repro.bench.harness import write_bench_json
from repro.config import EXECUTION_MODES, scaled_config
from repro.core.accelerator import SpadeSystem
from repro.core.engine import DEFAULT_CHUNK_NNZ
from repro.obs.ledger import RunLedger, read_events
from repro.sparse.generators import banded, rmat_graph, uniform_random

_PHASES = ("gen_s", "merge_s", "replay_s")


def run_once(cfg, execution: str, a, b, c, kernel: str,
             chunk_nnz: int = DEFAULT_CHUNK_NNZ):
    """One timed end-to-end engine run.

    Returns ``(seconds, report, phases)`` where ``phases`` sums the
    per-epoch host phase split recorded by a throwaway run ledger (plus
    the fused-generation chunk count).
    """
    with tempfile.TemporaryDirectory(prefix="bench-gen-ledger-") as tmp:
        ledger = RunLedger(Path(tmp) / "ledger.jsonl")
        system = SpadeSystem(
            cfg, chunk_nnz=chunk_nnz, execution=execution,
            ledger=ledger,
        )
        t0 = time.perf_counter()
        if kernel == "spmm":
            report = system.spmm(a, b)
        else:
            report = system.sddmm(a, b, c)
        elapsed = time.perf_counter() - t0
        ledger.close()
        phases = {p: 0.0 for p in _PHASES}
        phases["fused_chunks"] = 0
        for ev in read_events(ledger.path):
            if ev.get("e") == "epoch":
                for p in _PHASES:
                    phases[p] += ev.get(p, 0.0)
                phases["fused_chunks"] += int(ev.get("fused_chunks") or 0)
    return elapsed, report, phases


def assert_parity(name: str, oracle, candidate, mode: str) -> None:
    if not np.array_equal(oracle.output, candidate.output):
        raise AssertionError(f"{name}: {mode} output diverged from scalar")
    if oracle.result.time_ns != candidate.result.time_ns:
        raise AssertionError(
            f"{name}: {mode} simulated time diverged "
            f"({oracle.result.time_ns} != {candidate.result.time_ns})"
        )
    if dataclasses.asdict(oracle.stats) != dataclasses.asdict(
        candidate.stats
    ):
        raise AssertionError(f"{name}: {mode} AccessStats diverged")
    if oracle.counters != candidate.counters:
        raise AssertionError(f"{name}: {mode} PECounters diverged")


def _operands(gen, k: int, kernel: str):
    a = gen()
    rng = np.random.default_rng(7)
    if kernel == "spmm":
        return a, rng.random((a.num_cols, k), dtype=np.float32), None
    return (
        a,
        rng.random((a.num_rows, k), dtype=np.float32),
        rng.random((a.num_cols, k), dtype=np.float32),
    )


def bench_one(cfg, name: str, a, b, c, k: int, kernel: str, reps: int,
              chunk_nnz: int = DEFAULT_CHUNK_NNZ) -> dict:
    times = {mode: [] for mode in EXECUTION_MODES}
    phases = {mode: [] for mode in EXECUTION_MODES}
    reports = {}
    for _ in range(reps):
        # Interleaved: every rep samples both modes back to back, so
        # each scalar/vectorized ratio is a paired measurement from the
        # same machine phase.
        for mode in EXECUTION_MODES:
            dt, report, ph = run_once(
                cfg, mode, a, b, c, kernel, chunk_nnz
            )
            times[mode].append(dt)
            phases[mode].append(ph)
            reports[mode] = report

    for mode in EXECUTION_MODES[1:]:
        assert_parity(name, reports["scalar"], reports[mode], mode)

    requests = reports["scalar"].counters.total_requests
    row = {
        "name": name,
        "kernel": kernel,
        "nnz": int(a.nnz),
        "k": k,
        "requests": int(requests),
        "parity": True,
    }
    best = {}
    for mode in EXECUTION_MODES:
        i = int(np.argmin(times[mode]))
        best[mode] = times[mode][i]
        row[f"{mode}_s"] = round(times[mode][i], 4)
        row[f"{mode}_median_s"] = round(statistics.median(times[mode]), 4)
        # Phase split of the best rep: where its seconds actually went.
        row[f"{mode}_phases"] = {
            key: (round(val, 4) if isinstance(val, float) else val)
            for key, val in phases[mode][i].items()
        }
    for mode in EXECUTION_MODES[1:]:
        row[f"{mode}_speedup"] = round(best["scalar"] / best[mode], 2)
    return row


def workloads(smoke: bool) -> List[Tuple[str, Callable, int, str, int]]:
    if smoke:
        return [
            ("smoke-unif-sddmm",
             lambda: uniform_random(512, 256, nnz=20_000, seed=11),
             16, "sddmm", DEFAULT_CHUNK_NNZ),
            ("smoke-rmat-spmm",
             lambda: rmat_graph(9, edge_factor=8, seed=5),
             16, "spmm", DEFAULT_CHUNK_NNZ),
        ]
    return [
        # Headline: the same >= 1M-access SDDMM (and replay window) as
        # BENCH_replay.json, so generation- and replay-stage gains are
        # tracked on one workload across PRs.
        ("unif-sddmm-1m",
         lambda: uniform_random(8192, 256, nnz=1_000_000, seed=11),
         16, "sddmm", 32768),
        ("unif-sddmm-1m-wide",
         lambda: uniform_random(8192, 1024, nnz=900_000, seed=11),
         16, "sddmm", DEFAULT_CHUNK_NNZ),
        ("rmat13-spmm-k64",
         lambda: rmat_graph(13, edge_factor=16, seed=5),
         64, "spmm", DEFAULT_CHUNK_NNZ),
        ("banded64k-sddmm-k16",
         lambda: banded(65_536, bandwidth=24, seed=3),
         16, "sddmm", DEFAULT_CHUNK_NNZ),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workloads, 1 rep: CI-sized parity + plumbing check",
    )
    parser.add_argument(
        "--reps", type=int, default=5,
        help="timing repetitions per workload (interleaved across "
        "modes; min is the headline, median recorded alongside)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="output JSON path (default: repo-root BENCH_gen.json, or "
        "BENCH_gen_smoke.json in --smoke mode so smoke runs never "
        "clobber the tracked full-mode results)",
    )
    parser.add_argument(
        "--pes", type=int, default=8, help="scaled_config PE count"
    )
    args = parser.parse_args(argv)
    if args.out is None:
        name = "BENCH_gen_smoke.json" if args.smoke else "BENCH_gen.json"
        args.out = Path(__file__).resolve().parent.parent / name
    reps = 1 if args.smoke else max(1, args.reps)

    # Benchmark under the array replay backend: batched replay was the
    # Amdahl bottleneck of the vectorized engine (the ~1.9x cap this
    # headline used to sit at), so the end-to-end speedups now track
    # generation gains with replay off the critical path.
    cfg = dataclasses.replace(scaled_config(args.pes), replay="array")
    results = []
    for name, gen, k, kernel, chunk_nnz in workloads(args.smoke):
        a, b, c = _operands(gen, k, kernel)
        row = bench_one(cfg, name, a, b, c, k, kernel, reps, chunk_nnz)
        row["chunk_nnz"] = chunk_nnz
        results.append(row)
        gen_share = (
            row["vectorized_phases"]["gen_s"] / row["vectorized_s"]
            if row["vectorized_s"] else 0.0
        )
        print(
            f"{row['name']:22s} requests={row['requests']:>9,d}  "
            f"scalar {row['scalar_s']:.3f}s  "
            f"vectorized {row['vectorized_s']:.3f}s "
            f"({row['vectorized_speedup']:.2f}x, "
            f"gen {gen_share:.0%})  parity=OK"
        )

    payload = {
        "benchmark": "gen_speed",
        "mode": "smoke" if args.smoke else "full",
        "config": {
            "pes": args.pes,
            "reps": reps,
            "timing": "interleaved reps; min headline, median recorded",
            "chunk_nnz": [r["chunk_nnz"] for r in results],
            "execution": list(EXECUTION_MODES),
            "replay": cfg.replay,
        },
        "workloads": results,
        "vectorized_speedup": results[0]["vectorized_speedup"],
    }
    write_bench_json(
        args.out, payload,
        config=cfg,
        workload={
            "benchmark": "gen_speed",
            "mode": payload["mode"],
            "workloads": [w[0] for w in workloads(args.smoke)],
        },
        extra={"argv": argv if argv is not None else sys.argv[1:]},
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
