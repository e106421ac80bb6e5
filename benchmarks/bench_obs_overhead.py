"""Run-ledger overhead benchmark: flight recorder on vs off.

Times the same seeded SDDMM workload end to end twice — once with the
ledger disabled (the default null writer) and once recording the full
event stream including the per-partition replay dispatch audit — and
asserts three things:

* **parity** — outputs, simulated time, stats, and counters are
  bit-identical with the recorder on and off (observability must never
  perturb the simulation);
* **coverage** — the enabled run's ledger is schema-valid and its
  dispatch audit is non-empty, while the disabled run records zero
  events and writes no file;
* **overhead** — the median over pairs of the on/off wall-time ratio
  stays within ``--max-overhead`` (3% by default on the full 1M-access
  headline; the smoke workload is too small to time stably, so smoke
  mode uses a loose plumbing-only bound).

The reps are interleaved on/off pairs, and which side runs first
alternates from pair to pair, so both runs of a pair sample the same
machine phase.  A 1M-access run takes ~0.15 s and single runs vary by
±10% on a shared host; the ratio of the per-side minima still moves
by more than 3% over 60 pairs, while the median of the 60 paired
ratios stays within ±1%.  The per-side minima and medians are recorded
alongside.

Results land in ``BENCH_obs.json``; the manifest cross-links the
recorded ledger (run id, event count, content digest) and the process
peak RSS.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import write_bench_json
from repro.config import scaled_config
from repro.core.accelerator import SpadeSystem
from repro.core.engine import DEFAULT_CHUNK_NNZ
from repro.obs import open_run_ledger, read_events, validate_ledgers
from repro.sparse.generators import uniform_random


def run_once(cfg, a, b, c, chunk_nnz, ledger=None):
    """One timed end-to-end SDDMM run; returns (seconds, report)."""
    system = SpadeSystem(cfg, chunk_nnz=chunk_nnz, ledger=ledger)
    t0 = time.perf_counter()
    report = system.sddmm(a, b, c)
    return time.perf_counter() - t0, report


def assert_parity(oracle, candidate) -> None:
    if not np.array_equal(oracle.output, candidate.output):
        raise AssertionError("ledger-on output diverged from ledger-off")
    if oracle.result.time_ns != candidate.result.time_ns:
        raise AssertionError(
            f"ledger-on simulated time diverged "
            f"({oracle.result.time_ns} != {candidate.result.time_ns})"
        )
    if dataclasses.asdict(oracle.stats) != dataclasses.asdict(
        candidate.stats
    ):
        raise AssertionError("ledger-on AccessStats diverged")
    if oracle.counters != candidate.counters:
        raise AssertionError("ledger-on PECounters diverged")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workload, 1 rep: CI-sized parity + plumbing check",
    )
    parser.add_argument(
        "--reps", type=int, default=60,
        help="interleaved on/off timing pairs (the median paired "
        "ratio is compared)",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=None,
        help="maximum allowed on/off wall-time ratio (default 1.03 "
        "full, 2.0 smoke — tiny runs are timing noise)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="output JSON path (default: repo-root BENCH_obs.json, or "
        "BENCH_obs_smoke.json in --smoke mode)",
    )
    parser.add_argument(
        "--pes", type=int, default=8, help="scaled_config PE count"
    )
    args = parser.parse_args(argv)
    if args.out is None:
        name = "BENCH_obs_smoke.json" if args.smoke else "BENCH_obs.json"
        args.out = Path(__file__).resolve().parent.parent / name
    reps = 1 if args.smoke else max(1, args.reps)
    max_overhead = args.max_overhead or (2.0 if args.smoke else 1.03)

    # perfbench's engine-sddmm-uniform inputs, so the overhead
    # number is measured exactly where the dispatch audit is busiest.
    if args.smoke:
        name = "smoke-unif-sddmm"
        a = uniform_random(512, 256, nnz=20_000, seed=11)
        chunk_nnz = DEFAULT_CHUNK_NNZ
    else:
        name = "unif-sddmm-1m"
        a = uniform_random(8192, 256, nnz=1_000_000, seed=11)
        chunk_nnz = 32768
    k = 16
    rng = np.random.default_rng(7)
    b = rng.random((a.num_rows, k), dtype=np.float32)
    c = rng.random((a.num_cols, k), dtype=np.float32)
    cfg = dataclasses.replace(scaled_config(args.pes), replay="array")

    ledger_dir = Path(tempfile.mkdtemp(prefix="bench-obs-"))
    try:
        off_times, on_times = [], []
        off_report = on_report = None
        ledger = None
        # One untimed run first: it pays the library load and the
        # first-touch page faults that no later rep pays.
        run_once(cfg, a, b, c, chunk_nnz)
        for rep in range(reps):
            # Even pairs run off then on, odd pairs on then off.
            for on in (rep % 2 == 1, rep % 2 == 0):
                if not on:
                    dt, off_report = run_once(cfg, a, b, c, chunk_nnz)
                    off_times.append(dt)
                    continue
                rep_ledger = open_run_ledger(
                    ledger_dir / f"rep{rep}", run_id=f"bench{rep:02d}"
                )
                dt, on_report = run_once(
                    cfg, a, b, c, chunk_nnz, ledger=rep_ledger
                )
                rep_ledger.close()
                on_times.append(dt)
                ledger = rep_ledger

        assert_parity(off_report, on_report)

        events = read_events(ledger.path)
        dispatch = [e for e in events if e["e"] == "dispatch"]
        if not dispatch:
            raise AssertionError(
                "ledger-on run recorded no dispatch audit events"
            )
        validate_ledgers([ledger.path], require_dispatch=True)
        chosen = {}
        for ev in dispatch:
            chosen[ev["chosen"]] = chosen.get(ev["chosen"], 0) + 1

        # Disabled side: the null writer must leave no trace at all.
        off_system = SpadeSystem(cfg, chunk_nnz=chunk_nnz)
        if off_system.ledger is not None:
            raise AssertionError("ledger-off system carries a ledger")

        off_s = min(off_times)
        on_s = min(on_times)
        ratio = statistics.median(
            t_on / t_off for t_off, t_on in zip(off_times, on_times)
        )
        print(
            f"{name:22s} min off {off_s:.3f}s  on {on_s:.3f}s  "
            f"paired ratio {ratio:.3f}  events={len(events)} "
            f"dispatch={len(dispatch)} chosen={chosen}  parity=OK"
        )
        if ratio > max_overhead:
            raise AssertionError(
                f"ledger overhead {ratio:.3f}x exceeds the "
                f"{max_overhead:.2f}x budget "
                f"(min off {off_s:.3f}s, on {on_s:.3f}s)"
            )

        payload = {
            "benchmark": "obs_overhead",
            "mode": "smoke" if args.smoke else "full",
            "config": {
                "pes": args.pes,
                "reps": reps,
                "timing": "interleaved alternating on/off pairs; "
                "median paired ratio compared, minima and medians "
                "recorded",
                "chunk_nnz": chunk_nnz,
                "replay": cfg.replay,
                "max_overhead": max_overhead,
            },
            "workload": {"name": name, "nnz": int(a.nnz), "k": k},
            "off_s": round(off_s, 4),
            "on_s": round(on_s, 4),
            "off_median_s": round(statistics.median(off_times), 4),
            "on_median_s": round(statistics.median(on_times), 4),
            "overhead_ratio": round(ratio, 4),
            "events": len(events),
            "dispatch_events": len(dispatch),
            "dispatch_chosen": chosen,
            "parity": True,
        }
        write_bench_json(
            args.out, payload,
            config=cfg,
            workload={
                "benchmark": "obs_overhead",
                "mode": payload["mode"],
                "name": name,
            },
            extra={"argv": argv if argv is not None else sys.argv[1:]},
            ledger=ledger,
        )
        print(f"wrote {args.out}")
    finally:
        shutil.rmtree(ledger_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
