"""Resilience layer: checkpoints, supervised runs, fault injection.

Long simulator runs (full-scale suite matrices, sweep campaigns on
shared machines) fail for mundane reasons — a worker thread dies, a
node gets preempted, a batch job hits its walltime.  This package makes
such failures recoverable without giving up the repo's core guarantee:
every execution path is bit-identical.

Three pieces:

* :mod:`repro.resilience.checkpoint` — epoch-granular snapshots of the
  full architectural state (caches, STLBs, BBFs, VRFs, accumulated
  stats, schedule cursor).  A resumed run replays the remaining epochs
  and produces an :class:`~repro.core.engine.EngineResult` bit-identical
  to an uninterrupted one.
* :mod:`repro.resilience.supervisor` — :class:`RunSupervisor` wraps
  kernel entry points with watchdog timeouts, bounded retry with
  exponential backoff, and a one-step degradation from the requested
  backends to the scalar oracle, preserving output parity.
* :mod:`repro.resilience.chaos` — deterministic fault injection for
  testing the above (worker exceptions, replay delays, truncated
  checkpoints, mid-run crashes), all derived from a seed.
"""

from repro.errors import (
    CheckpointError,
    ConfigError,
    EngineExecutionError,
    SpadeError,
    WatchdogTimeout,
    WorkloadError,
)
from repro.resilience.chaos import (
    ChaosConfig,
    ChaosMonkey,
    InjectedCrash,
    InjectedFault,
)
from repro.resilience.checkpoint import (
    CheckpointManager,
    checkpoint_fingerprint,
)
from repro.resilience.supervisor import RunOutcome, RunSupervisor

__all__ = [
    "SpadeError",
    "ConfigError",
    "WorkloadError",
    "EngineExecutionError",
    "WatchdogTimeout",
    "CheckpointError",
    "ChaosConfig",
    "ChaosMonkey",
    "InjectedFault",
    "InjectedCrash",
    "CheckpointManager",
    "checkpoint_fingerprint",
    "RunOutcome",
    "RunSupervisor",
]
