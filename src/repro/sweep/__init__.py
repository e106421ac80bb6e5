"""repro.sweep: process-parallel sweep orchestration with result caching.

The paper's evaluation is a pile of (workload x configuration) grids —
14 figure/table drivers, each a nest of serial ``for`` loops.  This
package turns any such grid into hashable jobs and fans them out:

- :mod:`repro.jobmodel` (re-exported here) — grid expansion
  (:func:`expand_grid`)
  and content-addressed job keys (:class:`JobSpec`) built from the PR 2
  provenance fingerprints plus a sweep schema version, plus the
  :class:`JobResult` envelope the simulation service serves;
- :mod:`~repro.sweep.cache` — :class:`ResultCache`, a durable
  content-addressed store so re-runs and partially-failed sweeps skip
  completed jobs;
- :mod:`~repro.sweep.pool` — :class:`ServicePool`, the supervised
  worker pool sweeps and the simulation service share: fork workers,
  claim-at-dispatch leases, dead workers detected via process
  sentinels and their in-flight jobs requeued, poison jobs quarantined;
- :mod:`~repro.sweep.runner` — :class:`SweepRunner`, which runs a grid
  as one pool batch with deterministic per-job seeds and **grid-order
  merge**, so parallel output is byte-identical to serial (pinned by
  tests/test_sweep_parity.py);
- :mod:`~repro.sweep.lease` — :class:`LeaseManager`, per-job-key claim
  files with heartbeats, stale reclamation, attempt accounting, and
  poison-job quarantine, coordinating concurrent shard runners over one
  shared cache directory (``repro sweep --shard i/N``).

Every ``repro.bench`` driver accepts ``sweep=SweepRunner(...)``; the
CLI exposes it as ``--jobs N --cache-dir PATH`` on ``run`` / ``suite``
/ ``experiment``.  See DESIGN.md section 9.
"""

from repro.jobmodel import (
    SWEEP_SCHEMA_VERSION,
    JobResult,
    JobSpec,
    build_jobs,
    canonical_blob,
    environment_fingerprint,
    expand_grid,
    value_fingerprint,
)
from repro.sweep.cache import ResultCache, open_cache
from repro.sweep.lease import LeaseManager, LeaseState, open_leases
from repro.sweep.runner import SweepReport, SweepRunner, sweep_map

__all__ = [
    "SWEEP_SCHEMA_VERSION",
    "JobResult",
    "JobSpec",
    "LeaseManager",
    "LeaseState",
    "ResultCache",
    "SweepReport",
    "SweepRunner",
    "build_jobs",
    "canonical_blob",
    "environment_fingerprint",
    "expand_grid",
    "open_cache",
    "open_leases",
    "sweep_map",
    "value_fingerprint",
]
