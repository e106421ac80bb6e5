"""Golden end-to-end regression fixtures for the execution engine.

Small seeded SpMM and SDDMM runs on three generator domains are frozen
as JSON under ``tests/golden/``: ``time_ns``, ``dram_bytes``, per-level
hit/miss counts, and ``dirty_lines_flushed``.  Any silent drift in any
replay path — the scalar oracle, or the array backend with the compiled
kernels loaded or with their Python twins forced — fails loudly here,
and because ONE golden file serves ALL replay paths, these tests also
pin the bit-identical equivalence guarantee end to end.  A second
fixture family (``fingerprint_*.json``) freezes the full EngineResult
surface — simulated time, epoch count, merged PECounters and an output
digest — and holds BOTH execution backends (scalar, vectorized)
crossed with ALL THREE replay paths to it; the SpMM output digest
thereby pins the compiled merge and its twin to the same bytes under
every execution backend.

Regenerate after an intentional model change (from the repo root)::

    PYTHONPATH=src python tests/test_golden_engine.py --regen

then review the JSON diff like any other code change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import EXECUTION_MODES, scaled_config
from repro.core.accelerator import KernelSettings, SpadeSystem
from repro.sparse.generators import banded, rmat_graph, uniform_random
from tests.walks import kernels

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Three generator domains: power-law graph, regular banded FEM-like,
# rectangular uniform random.  Small enough for full simulation.
DOMAINS = {
    "rmat": lambda: rmat_graph(scale=8, edge_factor=8, seed=99),
    "banded": lambda: banded(num_rows=512, bandwidth=8, seed=3),
    "uniform": lambda: uniform_random(num_rows=256, num_cols=192, nnz=3000, seed=21),
}
KERNELS = ("spmm", "sddmm")
REPLAY_PATHS = {
    "scalar": ("scalar", "native"),
    "batched": ("array", "python"),
    "array": ("array", "native"),
}
"""Replay paths held to the golden files, by test id: ``(replay mode,
kernels)``.  ``batched`` is the array backend with the twins of every
compiled kernel forced (the VRF and cache walks and the SpMM merge), so
its SpMM output comes from ``np.add.at``; the id is kept from the
per-chunk dict-walk backend that path replaced, so the suite's test ids
stay stable."""
REPLAY_MODES = tuple(REPLAY_PATHS)
K = 16


def run_case(
    domain: str,
    kernel: str,
    replay: str,
    execution: str = "vectorized",
    settings: KernelSettings = None,
):
    """One seeded run on the replay path ``replay`` (a REPLAY_PATHS id)."""
    mode, walks = REPLAY_PATHS[replay]
    cfg = dataclasses.replace(
        scaled_config(4, cache_shrink=8), replay=mode, execution=execution
    )
    system = SpadeSystem(cfg)
    a = DOMAINS[domain]()
    rng = np.random.default_rng(2024)
    with kernels(walks):
        if kernel == "spmm":
            b = rng.random((a.num_cols, K), dtype=np.float32)
            return system.spmm(a, b, settings=settings)
        b = rng.random((a.num_rows, K), dtype=np.float32)
        c = rng.random((a.num_cols, K), dtype=np.float32)
        return system.sddmm(a, b, c, settings=settings)


def metrics(report) -> dict:
    """The frozen metric surface of one run."""
    result = report.result
    stats = result.stats
    levels = {}
    for name in ("l1", "l2", "llc", "victim", "bbf_stream"):
        level = getattr(stats, name)
        levels[name] = {
            "hits": level.hits,
            "misses": level.misses,
            "writebacks": level.writebacks,
            "hit_rate": round(level.hit_rate, 10),
        }
    return {
        "time_ns": round(result.time_ns, 6),
        "dram_bytes": result.dram_bytes,
        "dram_reads": stats.dram_reads,
        "dram_writes": stats.dram_writes,
        "stlb_misses": stats.stlb_misses,
        "dirty_lines_flushed": result.dirty_lines_flushed,
        "levels": levels,
    }


def fingerprint(report) -> dict:
    """The frozen EngineResult surface pinned across execution modes:
    simulated time, epoch count, merged PECounters, the metric surface
    of :func:`metrics`, and a digest of the raw output bytes."""
    result = report.result
    out = (
        result.output_dense
        if result.output_dense is not None
        else result.output_vals
    )
    return {
        "time_ns": round(result.time_ns, 6),
        "compute_time_ns": round(result.compute_time_ns, 6),
        "epochs": len(result.epoch_timings),
        "counters": dataclasses.asdict(result.counters),
        "output_sha256": hashlib.sha256(
            np.ascontiguousarray(out).tobytes()
        ).hexdigest(),
        "metrics": metrics(report),
    }


# One SpMM and one SDDMM workload; the SDDMM case uses barrier epochs
# so the pinned epoch count exercises the multi-epoch driver path.
FINGERPRINT_CASES = {
    "spmm_rmat": ("rmat", "spmm", None),
    "sddmm_uniform": (
        "uniform",
        "sddmm",
        KernelSettings(
            row_panel_size=64, col_panel_size=64, use_barriers=True
        ),
    ),
}


def golden_path(domain: str, kernel: str) -> Path:
    return GOLDEN_DIR / f"{kernel}_{domain}.json"


def fingerprint_path(case: str) -> Path:
    return GOLDEN_DIR / f"fingerprint_{case}.json"


def assert_matches_golden(got: dict, want: dict, where: str) -> None:
    assert got.keys() == want.keys(), where
    for key, expected in want.items():
        actual = got[key]
        if isinstance(expected, dict):
            assert_matches_golden(actual, expected, f"{where}.{key}")
        elif isinstance(expected, float):
            assert actual == pytest.approx(expected, rel=1e-9), (
                f"{where}.{key}: {actual} != {expected}"
            )
        else:
            assert actual == expected, (
                f"{where}.{key}: {actual} != {expected}"
            )


@pytest.mark.parametrize("replay", REPLAY_MODES)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_engine_matches_golden(domain, kernel, replay):
    path = golden_path(domain, kernel)
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with "
        f"`PYTHONPATH=src python tests/test_golden_engine.py --regen`"
    )
    want = json.loads(path.read_text())
    got = metrics(run_case(domain, kernel, replay))
    assert_matches_golden(got, want, f"{kernel}/{domain}[{replay}]")


@pytest.mark.parametrize("replay", REPLAY_MODES)
@pytest.mark.parametrize("execution", EXECUTION_MODES)
@pytest.mark.parametrize("case", sorted(FINGERPRINT_CASES))
def test_engine_fingerprint_matches_golden(case, execution, replay):
    """ONE pinned fingerprint per workload holds ALL execution backends
    crossed with ALL replay backends to the same simulated time, epoch
    count, stats, counters and output bits."""
    path = fingerprint_path(case)
    assert path.exists(), (
        f"missing golden fixture {path}; regenerate with "
        f"`PYTHONPATH=src python tests/test_golden_engine.py --regen`"
    )
    want = json.loads(path.read_text())
    domain, kernel, settings = FINGERPRINT_CASES[case]
    got = fingerprint(
        run_case(domain, kernel, replay, execution, settings)
    )
    assert_matches_golden(
        got, want, f"fingerprint/{case}[{execution}+{replay}]"
    )


def test_replay_modes_agree_on_numerics():
    """Beyond the counters: the numeric kernel output is identical."""
    scalar = run_case("uniform", "spmm", "scalar")
    for replay in ("batched", "array"):
        other = run_case("uniform", "spmm", replay)
        np.testing.assert_array_equal(
            scalar.result.output_dense, other.result.output_dense
        )


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for domain in sorted(DOMAINS):
        for kernel in KERNELS:
            # Golden values come from the scalar oracle; the parametrized
            # test then holds both modes to them.
            got = metrics(run_case(domain, kernel, "scalar", "scalar"))
            path = golden_path(domain, kernel)
            path.write_text(json.dumps(got, indent=2) + "\n")
            print(f"wrote {path}")
    for case, (domain, kernel, settings) in sorted(
        FINGERPRINT_CASES.items()
    ):
        got = fingerprint(
            run_case(domain, kernel, "scalar", "scalar", settings)
        )
        path = fingerprint_path(case)
        path.write_text(json.dumps(got, indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
