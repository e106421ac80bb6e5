"""Replay-speed benchmark: scalar oracle vs array replay.

Captures the exact post-VRF memory trace of seeded SpMM/SDDMM runs
(the trace is mode-independent — the PE pipeline is deterministic),
then replays it through fresh :class:`MemorySystem` instances, one per
replay backend:

* **scalar** — one :meth:`dense_access`/:meth:`stream_access` call per
  access plus the per-access service-level counter tally, exactly as
  ``ProcessingElement`` does in ``replay="scalar"`` mode;
* **array** — one :meth:`replay_trace` call per PE chunk plus the
  ``np.bincount`` tally of ``ProcessingElement.record_replay`` in
  ``replay="array"`` mode: each cache level walks the chunk's
  event stream once (see ``memory/replay_array.py`` and DESIGN.md
  section 10).

Every run asserts bit-identical per-level tallies, AccessStats, and
per-level LRU/dirty state across both backends before timing is
reported, so the benchmark doubles as an end-to-end parity check.
Results land in ``BENCH_replay.json`` (see README) to track the perf
trajectory; the headline is the array backend's replay-only speedup
over the scalar oracle on the >= 1M-access workload.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_replay_speed.py
    PYTHONPATH=src python benchmarks/bench_replay_speed.py --quick

This is a standalone script, not a pytest-benchmark module (the
``bench_*`` siblings are run via ``pytest benchmarks``).
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

from repro.bench.harness import write_bench_json
from repro.config import scaled_config
from repro.core.accelerator import SpadeSystem
from repro.core.engine import DEFAULT_CHUNK_NNZ
from repro.memory.hierarchy import (
    OP_DENSE_BYPASS,
    OP_PATH_MASK,
    OP_REGION_SHIFT,
    OP_STREAM,
    OP_WRITE,
    TRACE_REGIONS,
    MemorySystem,
    ServiceLevel,
)
from repro.sparse.generators import banded, rmat_graph, uniform_random

_NUM_LEVELS = len(ServiceLevel)
_R_SPARSE = TRACE_REGIONS.index("sparse")

Chunk = Tuple[int, np.ndarray, np.ndarray]
Tally = Tuple[List[int], List[int], List[int]]

#: (name, matrix generator, k, kernel, replay chunk_nnz).  The chunk
#: size is a replay-window knob, not a workload property: both backends
#: replay the identical chunk sequence, so parity is unaffected, but
#: larger windows amortize the array backend's per-call costs.
Workload = Tuple[str, Callable, int, str, int]


def capture_trace(
    cfg, a, k: int, kernel: str, chunk_nnz: int = DEFAULT_CHUNK_NNZ
) -> List[Chunk]:
    """Run the full system once and capture every per-chunk trace the
    engine hands to ``MemorySystem.replay_trace``; an epoch-grain call
    is split into its dispatch runs ``(pe, lo, hi)``."""
    system = SpadeSystem(cfg, chunk_nnz=chunk_nnz)
    rng = np.random.default_rng(7)
    chunks: List[Chunk] = []
    orig = MemorySystem.replay_trace

    def cap(self, pe_id, lines, ops, region_names=TRACE_REGIONS):
        runs = [(pe_id, 0, len(lines))] if np.ndim(pe_id) == 0 else pe_id
        for pe, lo, hi in runs:
            chunks.append((pe, np.array(lines[lo:hi]), np.array(ops[lo:hi])))
        return orig(self, pe_id, lines, ops, region_names)

    MemorySystem.replay_trace = cap
    try:
        if kernel == "spmm":
            b = rng.random((a.num_cols, k), dtype=np.float32)
            system.spmm(a, b)
        else:
            b = rng.random((a.num_rows, k), dtype=np.float32)
            c = rng.random((a.num_cols, k), dtype=np.float32)
            system.sddmm(a, b, c)
    finally:
        MemorySystem.replay_trace = orig
    return chunks


def run_scalar(ms: MemorySystem, chunks: List[Chunk]) -> Tally:
    """Scalar-mode replay: per-access call + per-access level tally."""
    regions = TRACE_REGIONS
    stores = [0] * _NUM_LEVELS
    sparse = [0] * _NUM_LEVELS
    dense_r = [0] * _NUM_LEVELS
    for pe_id, lines, ops in chunks:
        dense = ms.dense_access
        stream = ms.stream_access
        for line, op in zip(lines.tolist(), ops.tolist()):
            w = op & OP_WRITE
            path = op & OP_PATH_MASK
            rid = op >> OP_REGION_SHIFT
            if path == OP_STREAM:
                lvl = stream(pe_id, line, bool(w), region=regions[rid])
            else:
                lvl = dense(
                    pe_id, line, bool(w),
                    bypass=(path == OP_DENSE_BYPASS), region=regions[rid],
                )
            if w:
                stores[lvl] += 1
            elif rid == _R_SPARSE:
                sparse[lvl] += 1
            else:
                dense_r[lvl] += 1
    return stores, sparse, dense_r


def run_chunked(ms: MemorySystem, chunks: List[Chunk]) -> Tally:
    """Chunked replay: one replay_trace call per chunk + bincount tally
    (mirrors ``ProcessingElement.record_replay``)."""
    stores = [0] * _NUM_LEVELS
    sparse = [0] * _NUM_LEVELS
    dense_r = [0] * _NUM_LEVELS
    for pe_id, lines, ops in chunks:
        levels = ms.replay_trace(pe_id, lines, ops)
        writes = (ops & OP_WRITE) != 0
        sp = (ops >> OP_REGION_SHIFT) == _R_SPARSE
        dn = ~writes & ~sp
        for mask, tally in ((writes, stores), (sp, sparse), (dn, dense_r)):
            if mask.any():
                counts = np.bincount(
                    levels[mask], minlength=_NUM_LEVELS
                ).tolist()
                for i in range(_NUM_LEVELS):
                    tally[i] += counts[i]
    return stores, sparse, dense_r


def lru_state(ms: MemorySystem):
    """Order-sensitive snapshot of every LRU structure (insertion order
    in the dicts IS the LRU order, so plain item lists pin it)."""
    return (
        [[list(s.items()) for s in c._sets] for c in ms.l1s],
        [[list(s.items()) for s in c._sets] for c in ms.l2s],
        [list(s.items()) for s in ms.llc._sets],
        [[list(s.items()) for s in b.stream._sets] for b in ms.bbfs],
        [[list(s.items()) for s in b.victim._sets] for b in ms.bbfs],
        [[list(s.items()) for s in t._sets] for t in ms.stlbs],
    )


def bench_one(cfg_array, name: str, chunks: List[Chunk], reps: int) -> dict:
    accesses = sum(len(lines) for _, lines, _ in chunks)
    times = {"scalar": [], "array": []}
    systems = {}
    tallies = {}
    for _ in range(reps):
        for mode, cfg, runner in (
            ("scalar", cfg_array, run_scalar),
            ("array", cfg_array, run_chunked),
        ):
            ms = MemorySystem(cfg)
            t0 = time.perf_counter()
            tallies[mode] = runner(ms, chunks)
            times[mode].append(time.perf_counter() - t0)
            systems[mode] = ms

    stats = {
        m: dataclasses.asdict(systems[m].collect_stats())
        for m in systems
    }
    states = {m: lru_state(systems[m]) for m in systems}
    for mode in ("array",):
        assert tallies[mode] == tallies["scalar"], (
            f"{name}: {mode} per-level tallies diverged"
        )
        assert stats[mode] == stats["scalar"], (
            f"{name}: {mode} AccessStats diverged"
        )
        assert states[mode] == states["scalar"], (
            f"{name}: {mode} LRU state diverged"
        )

    st = systems["array"].collect_stats()
    # Median of reps: robust to one-off scheduler noise in either
    # direction, unlike min (best case only) or mean (outlier-skewed).
    med = {m: statistics.median(times[m]) for m in times}
    return {
        "name": name,
        "accesses": accesses,
        "chunks": len(chunks),
        "scalar_s": round(med["scalar"], 4),
        "array_s": round(med["array"], 4),
        "speedup_array": round(med["scalar"] / med["array"], 2),
        "scalar_us_per_access": round(med["scalar"] / accesses * 1e6, 3),
        "array_us_per_access": round(med["array"] / accesses * 1e6, 3),
        "l1_hit_rate": round(st.l1.hit_rate, 4),
        "l2_hit_rate": round(st.l2.hit_rate, 4),
        "parity": True,
    }


def workloads(quick: bool) -> List[Workload]:
    if quick:
        return [
            ("smoke-unif-sddmm",
             lambda: uniform_random(512, 256, nnz=20_000, seed=11),
             16, "sddmm", DEFAULT_CHUNK_NNZ),
            ("smoke-rmat-spmm",
             lambda: rmat_graph(9, edge_factor=8, seed=5),
             16, "spmm", DEFAULT_CHUNK_NNZ),
        ]
    return [
        # Headline: >= 1M-access SDDMM whose dense working set is
        # L1-resident per set — the high-reuse regime SPADE targets.
        # The 32k replay window amortizes the per-call costs
        # (identical chunks are replayed by both backends, so parity
        # is chunk-size independent).
        ("unif-sddmm-1m",
         lambda: uniform_random(8192, 256, nnz=1_000_000, seed=11),
         16, "sddmm", 32768),
        # The former headline: wide dense operand whose working set is
        # only L2-resident, so the L1 miss cascade stays hot.
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
        "--quick", "--smoke", dest="quick", action="store_true",
        help="tiny traces, 1 rep: CI-sized parity + plumbing check",
    )
    parser.add_argument(
        "--reps", type=int, default=3,
        help="timing repetitions per workload (median is reported)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="output JSON path (default: repo-root BENCH_replay.json, "
        "or BENCH_replay_smoke.json in --quick mode so quick runs "
        "never clobber the tracked full-mode results)",
    )
    parser.add_argument(
        "--pes", type=int, default=8, help="scaled_config PE count"
    )
    args = parser.parse_args(argv)
    if args.out is None:
        name = "BENCH_replay_smoke.json" if args.quick else "BENCH_replay.json"
        args.out = Path(__file__).resolve().parent.parent / name
    reps = 1 if args.quick else max(1, args.reps)

    cfg_array = dataclasses.replace(scaled_config(args.pes), replay="array")
    results = []
    rows = workloads(args.quick)
    for name, gen, k, kernel, chunk_nnz in rows:
        chunks = capture_trace(cfg_array, gen(), k, kernel, chunk_nnz)
        row = bench_one(cfg_array, name, chunks, reps)
        row["chunk_nnz"] = chunk_nnz
        results.append(row)
        print(
            f"{row['name']:22s} accesses={row['accesses']:>9,d}  "
            f"scalar {row['scalar_s']:.3f}s  array {row['array_s']:.3f}s "
            f"({row['speedup_array']:.2f}x)  parity=OK"
        )

    payload = {
        "benchmark": "replay_speed",
        "mode": "smoke" if args.quick else "full",
        "config": {
            "pes": args.pes,
            "reps": reps,
            "chunk_nnz": [r["chunk_nnz"] for r in results],
            "execution": cfg_array.execution,
            "replay": ["scalar", "array"],
        },
        "workloads": results,
        "headline_speedup": results[0]["speedup_array"],
    }
    write_bench_json(
        args.out, payload,
        config=cfg_array,
        workload={
            "benchmark": "replay_speed",
            "mode": payload["mode"],
            "workloads": [w[0] for w in rows],
        },
        extra={"argv": argv if argv is not None else sys.argv[1:]},
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
