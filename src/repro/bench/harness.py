"""Shared benchmark infrastructure: environment, workload cache, tables.

The environment is controlled by environment variables so the same
bench files can run quick (CI) or thorough (full reproduction):

- ``REPRO_SCALE``  — suite matrix scale: tiny | small | default | large
  (default: small)
- ``REPRO_PES``    — PEs in the simulated SPADE1 system (default: 8)
- ``REPRO_OPT``    — SPADE Opt search: quick | full (default: quick)
- ``REPRO_CACHE_SHRINK`` — extra cache-capacity shrink so scaled-down
  matrices stress the hierarchy like the paper's full-size ones
  (default: 32; see :func:`repro.config.scaled_config`)
- ``REPRO_RP_DIVISOR`` — divide the paper's Table 3 row-panel sizes by
  this factor so that panels-per-PE matches the paper on scaled-down
  matrices (default: 8)
- ``REPRO_TIMEOUT_S`` — wall-clock watchdog per supervised attempt, in
  seconds (default: off)
- ``REPRO_MAX_RETRIES`` — transient-failure retries per supervised
  attempt (default: 0)
- ``REPRO_JOBS``   — worker processes for experiment grids (default: 1,
  serial; parallel output is byte-identical to serial)
- ``REPRO_CACHE_DIR`` — content-addressed sweep result cache directory
  so re-runs and partially-failed sweeps skip completed jobs
  (default: off)
- ``REPRO_MAX_ATTEMPTS`` — lease attempts per sweep job before it is
  quarantined as poison (default: 3)
- ``REPRO_KEEP_GOING`` — set to 1 to let a sweep complete around
  quarantined/failed jobs instead of raising (default: off)
- ``REPRO_LEASE_DIR`` — explicit lease/quarantine directory; defaults
  to ``<cache dir>/.leases`` when a result cache is configured
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.cpu import CPUModel
from repro.baselines.gpu import GPUModel
from repro.baselines.sextans import SextansModel
from repro.config import (
    ResilienceConfig,
    SpadeConfig,
    paper_config,
    scaled_config,
)
from repro.core.accelerator import KernelSettings, SpadeSystem
from repro.jobmodel import NOT_KEYED
from repro.sparse.coo import COOMatrix
from repro.sparse.suite import SUITE, Benchmark, get_benchmark

PAPER_PES = 224
"""PE count of the paper's SPADE1 system."""


@dataclass(frozen=True)
class BenchEnvironment:
    """Resolved benchmark environment."""

    scale: str
    num_pes: int
    opt_mode: str
    cache_shrink: float = 32.0
    row_panel_divisor: int = 8
    # Orchestration knobs: how cells run, never what they compute.
    timeout_s: Optional[float] = field(default=None, metadata=NOT_KEYED)
    max_retries: int = field(default=0, metadata=NOT_KEYED)
    jobs: int = field(default=1, metadata=NOT_KEYED)
    cache_dir: Optional[str] = field(default=None, metadata=NOT_KEYED)
    max_attempts: int = field(default=3, metadata=NOT_KEYED)
    keep_going: bool = field(default=False, metadata=NOT_KEYED)
    lease_dir: Optional[str] = field(default=None, metadata=NOT_KEYED)

    @property
    def ratio(self) -> float:
        """System scale ratio versus the paper's 224-PE machine."""
        return self.num_pes / PAPER_PES

    def resilience_config(self, **overrides) -> ResilienceConfig:
        """Resilience policy from the environment's watchdog/retry
        knobs; keyword overrides win."""
        overrides.setdefault("timeout_s", self.timeout_s)
        overrides.setdefault("max_retries", self.max_retries)
        return ResilienceConfig(**overrides)

    def spade_config(self, factor: int = 1) -> SpadeConfig:
        """SPADE{factor} Base system at this environment's scale."""
        cfg = scaled_config(
            self.num_pes,
            name=f"SPADE{factor}-bench",
            cache_shrink=self.cache_shrink,
        )
        cfg = dataclasses.replace(cfg, resilience=self.resilience_config())
        return cfg.scaled(factor) if factor > 1 else cfg

    def spade_system(self, factor: int = 1) -> SpadeSystem:
        return SpadeSystem(self.spade_config(factor))

    def supervisor(self, chaos=None):
        """A :class:`~repro.resilience.RunSupervisor` with this
        environment's watchdog/retry policy."""
        from repro.resilience import RunSupervisor

        return RunSupervisor(
            resilience=self.resilience_config(), chaos=chaos
        )

    def supervised_run(
        self, kernel: str, a, b, c=None, factor: int = 1, settings=None
    ):
        """Run one kernel under supervision (watchdog + retry +
        degradation) at this environment's scale."""
        return self.supervisor().run_kernel(
            self.spade_config(factor), kernel, a, b, c, settings=settings
        )

    def sweep(self):
        """A :class:`~repro.sweep.SweepRunner` for this environment's
        ``jobs``/``cache_dir`` knobs, or ``None`` when both are at their
        defaults (drivers then run their plain serial loops)."""
        if self.jobs <= 1 and not self.cache_dir:
            return None
        from repro.sweep import SweepRunner, open_cache

        return SweepRunner(
            jobs=self.jobs,
            cache=open_cache(self.cache_dir),
            resilience=self.resilience_config(),
            max_attempts=self.max_attempts,
            keep_going=self.keep_going,
            lease_dir=self.lease_dir,
        )

    def base_settings(self, **overrides) -> KernelSettings:
        """SPADE Base settings mapped onto this environment's scale:
        the paper's RP=256 divided by the row-panel scale factor."""
        overrides.setdefault(
            "row_panel_size", max(2, 256 // self.row_panel_divisor)
        )
        return KernelSettings(**overrides)

    def cpu_model(self) -> CPUModel:
        return CPUModel(self.spade_config().host)

    def gpu_model(self) -> GPUModel:
        return GPUModel(scale_ratio=self.ratio, cache_shrink=self.cache_shrink)

    def sextans_model(self) -> SextansModel:
        cfg = self.spade_config()
        return SextansModel(
            dram_peak_gbps=cfg.memory.dram_peak_gbps,
            scale_ratio=self.ratio,
            cache_shrink=self.cache_shrink,
        )


def get_environment() -> BenchEnvironment:
    """Read the benchmark environment from process env vars."""
    scale = os.environ.get("REPRO_SCALE", "small")
    num_pes = int(os.environ.get("REPRO_PES", "8"))
    opt_mode = os.environ.get("REPRO_OPT", "quick")
    cache_shrink = float(os.environ.get("REPRO_CACHE_SHRINK", "32"))
    rp_divisor = int(os.environ.get("REPRO_RP_DIVISOR", "8"))
    timeout_env = os.environ.get("REPRO_TIMEOUT_S")
    timeout_s = float(timeout_env) if timeout_env else None
    max_retries = int(os.environ.get("REPRO_MAX_RETRIES", "0"))
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    max_attempts = int(os.environ.get("REPRO_MAX_ATTEMPTS", "3"))
    keep_going = os.environ.get("REPRO_KEEP_GOING", "") not in ("", "0")
    lease_dir = os.environ.get("REPRO_LEASE_DIR") or None
    if opt_mode not in ("quick", "full"):
        raise ValueError("REPRO_OPT must be 'quick' or 'full'")
    return BenchEnvironment(
        scale=scale, num_pes=num_pes, opt_mode=opt_mode,
        cache_shrink=cache_shrink, row_panel_divisor=rp_divisor,
        timeout_s=timeout_s, max_retries=max_retries,
        jobs=jobs, cache_dir=cache_dir,
        max_attempts=max_attempts, keep_going=keep_going,
        lease_dir=lease_dir,
    )


# -- workload construction (cached: matrices are deterministic) -----------

@lru_cache(maxsize=64)
def suite_matrix(name: str, scale: str) -> COOMatrix:
    """One suite matrix, memoised across experiments."""
    return get_benchmark(name).build(scale)


def suite_benchmarks() -> List[Benchmark]:
    return list(SUITE)


@lru_cache(maxsize=256)
def dense_input(num_rows: int, k: int, seed: int = 42) -> np.ndarray:
    """Deterministic dense operand (shared across experiments)."""
    rng = np.random.default_rng(seed + 13 * k + num_rows)
    return rng.random((num_rows, k), dtype=np.float32)


# -- numerics ----------------------------------------------------------------

def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


# -- result persistence -------------------------------------------------------

def write_bench_json(
    path,
    payload: dict,
    *,
    config=None,
    workload: Optional[dict] = None,
    extra: Optional[dict] = None,
    ledger=None,
) -> dict:
    """Stamp ``payload`` with a provenance manifest and write it as JSON.

    Today its writer is ``benchmarks/bench_obs_overhead.py`` (the
    observability overhead gate's result): the manifest records schema
    version, config fingerprint, git SHA, host, and the process's peak
    RSS, so a result file says what produced it; pass ``ledger`` to
    cross-link the run's flight-recorder file (path, run id, event
    count, content digest).  The measured numbers in ``payload`` pass
    through unchanged.  Returns the stamped payload.
    """
    from repro.obs.ledger import peak_rss_bytes
    from repro.obs.provenance import stamp

    extra = dict(extra) if extra else {}
    rss = peak_rss_bytes()
    if rss is not None and "peak_rss_bytes" not in extra:
        extra["peak_rss_bytes"] = rss
    stamped = stamp(
        payload, config=config, workload=workload,
        extra=extra or None, ledger=ledger,
    )
    Path(path).write_text(json.dumps(stamped, indent=2) + "\n")
    return stamped


# -- reporting ----------------------------------------------------------------

def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Simple aligned ASCII table."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.3g}" if abs(cell) < 1000 else f"{cell:.4g}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
