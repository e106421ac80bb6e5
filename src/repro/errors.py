"""Typed error taxonomy for the SPADE reproduction.

Every error the toolkit raises deliberately derives from
:class:`SpadeError`, so callers (the CLI, the run supervisor, the bench
harness) can catch one base class and map it to an exit code or a retry
decision.  The concrete classes split along the axis that matters for
resilience — *who can fix it*:

- :class:`ConfigError` — the system description is wrong (bad cache
  geometry, unknown execution mode, schedule/system mismatch).  Fixing
  it requires changing the configuration; retrying is pointless.
- :class:`WorkloadError` — the kernel operands are wrong (shape
  mismatches, unknown suite benchmark).  Also permanent.
- :class:`EngineExecutionError` — a run failed *while executing* (e.g.
  an epoch's trace generation or replay raised).  Potentially
  transient: the run supervisor retries these and degrades to the
  scalar oracle.
- :class:`WatchdogTimeout` — a supervised run exceeded its watchdog.
  Transient by classification (the retry may hit a warmer cache or a
  degraded-but-reliable backend).
- :class:`CheckpointError` — a snapshot could not be written, read, or
  trusted (truncated payload, foreign config fingerprint).  Permanent:
  silently resuming from a bad snapshot would violate the bit-exactness
  guarantee, so the supervisor surfaces these instead of retrying.

``ConfigError`` and ``WorkloadError`` subclass :class:`ValueError` (and
the others :class:`RuntimeError` / :class:`TimeoutError`) so existing
``except ValueError`` call sites and tests keep working.
"""

from __future__ import annotations

from typing import Optional


class SpadeError(Exception):
    """Base class of every deliberate error raised by this package."""


class ConfigError(SpadeError, ValueError):
    """The system configuration is invalid or internally inconsistent."""


class WorkloadError(SpadeError, ValueError):
    """The kernel operands / workload description are invalid."""


class EngineExecutionError(SpadeError, RuntimeError):
    """A kernel execution failed mid-run.

    Carries the failure coordinates so a log line is actionable without
    digging through the chained traceback: ``pe_id`` is the processing
    element whose work failed and ``chunk_index`` the per-epoch ordinal
    of the chunk it was generating or replaying.
    """

    def __init__(
        self,
        message: str,
        pe_id: Optional[int] = None,
        chunk_index: Optional[int] = None,
    ) -> None:
        detail = message
        coords = []
        if pe_id is not None:
            coords.append(f"pe={pe_id}")
        if chunk_index is not None:
            coords.append(f"chunk={chunk_index}")
        if coords:
            detail = f"{message} [{', '.join(coords)}]"
        super().__init__(detail)
        self.pe_id = pe_id
        self.chunk_index = chunk_index


class WatchdogTimeout(SpadeError, TimeoutError):
    """A supervised run exceeded its watchdog timeout."""


class CheckpointError(SpadeError, RuntimeError):
    """A checkpoint could not be written, read, or trusted."""


class SweepError(SpadeError, RuntimeError):
    """A parallel sweep could not be orchestrated."""


class SweepJobError(SweepError):
    """One or more sweep jobs failed.

    Carries the coordinates of every failed job so a partially-failed
    sweep is actionable: completed jobs are already in the result cache,
    and re-running the same sweep retries only the jobs listed here.
    """

    def __init__(self, driver: str, failures) -> None:
        self.driver = driver
        self.failures = list(failures)
        lines = ", ".join(
            f"{point!r}: {message}" for point, message in self.failures
        )
        super().__init__(
            f"{len(self.failures)} sweep job(s) failed in {driver!r} "
            f"({lines}); completed jobs are cached — rerun to retry "
            "only the failures"
        )
