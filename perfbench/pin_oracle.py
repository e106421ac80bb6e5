"""Pin the scalar-oracle facts the engine workloads are checked against.

    python3 perfbench/pin_oracle.py 0 31

Runs each engine workload once per seed in the given inclusive range
with ``execution="scalar"`` and ``replay="scalar"`` (the reference
oracle) and merges the simulated facts -- output sha256, simulated
time, AccessStats and PECounters digests -- into
``perfbench/oracle.json``.  Re-pin only when the model itself changes on
purpose: a simulator-speed change must leave the file untouched.  A
benchmark run with a seed that is not pinned runs the oracle live.
"""

from __future__ import annotations

import json
import sys

from common import HERE, SRC

sys.path.insert(0, str(SRC))

import bench_engine  # noqa: E402


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    path = HERE / "oracle.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for workload in bench_engine.SPECS:
        pins = table.setdefault(workload, {})
        for seed in range(first, last + 1):
            pins[str(seed)] = bench_engine.scalar_oracle(workload, seed)
            print(f"{workload} seed {seed}: {pins[str(seed)]['time_ns']} ns",
                  flush=True)
        table[workload] = dict(sorted(pins.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
