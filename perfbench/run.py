"""The repository's HEAD benchmark: simulator, sweep and service speed.

Runs one workload for a fixed time through the entry points users call,
checks every answer, and prints one JSON line last::

    python3 perfbench/run.py --workload engine-spmm-rmat --seed 0 \\
        --seconds 25 --trace 0

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload untraced and then again with the layer
wrappers and the run ledger on, and reports the ``per_layer`` metrics.
Either way the full report (raw samples; spans and the ledger summary
when traced) is written to ``.bench_out/``.  Scratch files live under
``.bench_work/`` and are removed at exit.  See ``perfbench/README.md``
for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from calibrate import HostSpeed
from common import ROOT, SRC

WORKLOADS = {
    "engine-sddmm-uniform": "bench_engine",
    "engine-spmm-rmat": "bench_engine",
    "service-zipf": "bench_service",
}

OTHER_WORKLOAD_LAYERS = ("sweep.", "service.")
"""Per-layer metric prefixes a workload reports as zero work when it
does not run that layer."""


def result_line(outcome, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    # A traced run measures the untraced numbers too; the per-layer list
    # may name one of them (``latency_p95_ms``).
    values = (
        dict(outcome.end_to_end, **outcome.per_layer) if trace
        else outcome.end_to_end
    )
    if trace:
        values.setdefault("failed_frac", outcome.failed / outcome.attempted)
        for metric in wanted:
            if metric["name"].startswith(OTHER_WORKLOAD_LAYERS):
                values.setdefault(metric["name"], 0.0)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="SPADE simulator HEAD benchmark (one workload)."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    module = importlib.import_module(WORKLOADS[args.workload])

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        outcome = module.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work,
            HostSpeed(),
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    line = result_line(outcome, bool(args.trace))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    path = out_dir / f"{kind}-{args.workload}-seed{args.seed}.json"
    outcome.report.update(end_to_end=outcome.end_to_end,
                          per_layer=outcome.per_layer)
    path.write_text(json.dumps(outcome.report, sort_keys=True) + "\n")
    print(f"perfbench: full report in {path.relative_to(ROOT)}",
          file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
