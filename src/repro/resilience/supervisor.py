"""Supervised kernel execution: watchdog, retry, backend degradation.

:class:`RunSupervisor` wraps a kernel invocation in three layers of
protection, outermost first:

1. **Degradation** — if the requested backends keep failing, fall back
   once to the scalar oracle (``execution="scalar"``,
   ``replay="scalar"``).  All backend combinations are bit-identical,
   so degrading changes wall-clock time but never results; the step is
   recorded as a ``degradation`` ledger event.
2. **Bounded retry** — transient failures (worker exceptions, watchdog
   timeouts, I/O hiccups) are retried on the same rung up to
   ``max_retries`` times with exponential backoff, each recorded as a
   ``retry`` ledger event.  When a checkpoint
   directory is configured, retries resume from the latest snapshot
   instead of starting over.  Permanent failures (bad config, bad
   workload, corrupt-beyond-recovery checkpoints) are raised
   immediately — retrying cannot fix them.
3. **Watchdog** — each attempt runs under an optional wall-clock
   timeout; a hung attempt surfaces as :class:`WatchdogTimeout`, which
   is itself transient (hence retried/degraded).

The supervisor builds a fresh :class:`~repro.core.accelerator.SpadeSystem`
per attempt: a failed engine's partially-mutated cache/VRF state cannot
be salvaged in place, but checkpoints make that cheap.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from repro import native
from repro.errors import (
    CheckpointError,
    ConfigError,
    EngineExecutionError,
    WatchdogTimeout,
    WorkloadError,
)
from repro.jobmodel import config_fingerprint
from repro.obs.ledger import NULL_LEDGER


@dataclass(frozen=True)
class RunOutcome:
    """How a supervised run actually executed."""

    backend: str
    requested_backend: str
    attempts: int
    retries: int
    degradations: int
    # Replay mode of the rung that ran, next to its execution mode.  Defaults
    # keep older call sites (and pickled outcomes) constructible.
    replay: str = ""
    requested_replay: str = ""

    @property
    def degraded(self) -> bool:
        return (
            self.backend != self.requested_backend
            or self.replay != self.requested_replay
        )


def _kernels_field() -> dict:
    """The ``run_end`` ``kernels`` field, when a walk ran here."""
    impl = native.kernels_impl()
    return {"kernels": impl} if impl else {}


class RunSupervisor:
    """Runs kernels with watchdog, retry, and degradation policies."""

    transient_errors = (EngineExecutionError, WatchdogTimeout, OSError)
    """Error types worth retrying: the next attempt may succeed."""

    permanent_errors = (ConfigError, WorkloadError, CheckpointError)
    """Error types raised immediately: retrying cannot change them.
    Checked *before* transients, so e.g. a ConfigError stays permanent
    even if a subclass were also transient."""

    def __init__(
        self,
        resilience=None,
        chaos=None,
        sleep: Callable[[float], None] = time.sleep,
        ledger=None,
    ) -> None:
        # Deferred import: config pulls in nothing heavy, but keeping it
        # local to __init__ mirrors the SpadeSystem lazy import below.
        from repro.config import ResilienceConfig

        self.resilience = resilience or ResilienceConfig()
        self.chaos = chaos
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self._sleep = sleep
        self.last_outcome: Optional[RunOutcome] = None

    # -- generic supervision --------------------------------------------

    def _with_watchdog(self, fn: Callable[[], object]) -> object:
        """Run ``fn``, raising :class:`WatchdogTimeout` if it exceeds the
        configured wall-clock budget.

        The attempt runs on a daemon thread so a hung attempt cannot
        block interpreter exit; it may keep consuming CPU in the
        background, which is the honest cost of timeouts without
        process isolation.
        """
        timeout = self.resilience.timeout_s
        if timeout is None:
            return fn()
        result: list = []
        error: list = []

        def target() -> None:
            try:
                result.append(fn())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                error.append(exc)

        thread = threading.Thread(
            target=target, name="spade-supervised-run", daemon=True
        )
        thread.start()
        thread.join(timeout)
        if thread.is_alive():
            raise WatchdogTimeout(
                f"supervised run exceeded its {timeout:g}s wall-clock budget"
            )
        if error:
            raise error[0]
        return result[0]

    def call(self, fn: Callable[[], object]) -> object:
        """Supervise an arbitrary callable: watchdog + bounded retry.

        No degradation ladder here — that needs kernel-level knowledge;
        use :meth:`run_kernel` for that.
        """
        res = self.resilience
        last_exc: Optional[BaseException] = None
        for attempt in range(res.max_retries + 1):
            try:
                return self._with_watchdog(fn)
            except self.permanent_errors:
                raise
            except self.transient_errors as exc:
                last_exc = exc
                if attempt == res.max_retries:
                    break
                self.ledger.emit(
                    "retry",
                    attempt=attempt + 1,
                    execution="",
                    replay="",
                    cause=repr(exc),
                    backoff_s=self._backoff(attempt),
                )
        assert last_exc is not None
        raise last_exc

    def _backoff(self, attempt: int) -> float:
        res = self.resilience
        delay = res.backoff_base_s * (res.backoff_factor ** attempt)
        if delay > 0:
            self._sleep(delay)
        return float(delay)

    # -- kernel supervision ----------------------------------------------

    def _ladder(
        self, requested: str, requested_replay: str
    ) -> Tuple[Tuple[str, str], ...]:
        """The (execution, replay) rungs to try: the requested one, then
        the scalar oracle.  There is no second rung when the request
        already executes ``scalar`` (replay has no effect there) or
        when ``degrade`` is off."""
        rungs = ((requested, requested_replay),)
        if self.resilience.degrade and requested != "scalar":
            rungs += (("scalar", "scalar"),)
        return rungs

    def run_kernel(
        self,
        config,
        kernel: str,
        a,
        b,
        c=None,
        settings=None,
        chunk_nnz: Optional[int] = None,
    ):
        """Run ``SpadeSystem.{spmm,sddmm}`` under full supervision.

        Builds a fresh system per attempt, retries transient failures
        with backoff, and degrades the execution backend between rungs.
        When a checkpoint directory is configured, any attempt after the
        first resumes from the latest snapshot — including across rungs,
        since checkpoints are backend-agnostic.  Returns the kernel's
        :class:`~repro.core.accelerator.ExecutionReport`; the realised
        backend and retry counts land in :attr:`last_outcome`.
        """
        # Imported lazily: accelerator -> engine -> resilience would
        # otherwise cycle at package import time.
        from repro.core.accelerator import SpadeSystem

        if kernel not in ("spmm", "sddmm"):
            raise ConfigError(
                f"unknown kernel {kernel!r}; expected 'spmm' or 'sddmm'"
            )
        res = self.resilience
        requested = config.execution
        requested_replay = config.replay
        ladder = self._ladder(requested, requested_replay)
        total_attempts = 0
        retries = 0
        degradations = 0
        last_exc: Optional[BaseException] = None

        if self.ledger.enabled:
            self.ledger.emit(
                "run_start",
                kernel=kernel,
                execution=requested,
                replay=requested_replay,
                config_fingerprint=config_fingerprint(config),
                pid=os.getpid(),
            )
        run_t0 = time.perf_counter()

        for rung, (backend, replay_mode) in enumerate(ladder):
            if rung > 0:
                degradations += 1
                self.ledger.emit(
                    "degradation",
                    from_execution=ladder[rung - 1][0],
                    from_replay=ladder[rung - 1][1],
                    to_execution=backend,
                    to_replay=replay_mode,
                    cause=repr(last_exc) if last_exc is not None else "",
                )
            for attempt in range(res.max_retries + 1):
                resume = res.resume or (
                    total_attempts > 0 and res.checkpoint_dir is not None
                )
                attempt_config = replace(
                    config,
                    execution=backend,
                    replay=replay_mode,
                    resilience=replace(res, resume=resume),
                )
                total_attempts += 1

                def run_once(cfg=attempt_config):
                    kwargs = {}
                    if chunk_nnz is not None:
                        kwargs["chunk_nnz"] = chunk_nnz
                    system = SpadeSystem(
                        config=cfg,
                        chaos=self.chaos,
                        ledger=self.ledger,
                        **kwargs,
                    )
                    fn = getattr(system, kernel)
                    if kernel == "spmm":
                        return fn(a, b, settings=settings)
                    return fn(a, b, c, settings=settings)

                try:
                    report = self._with_watchdog(run_once)
                except self.permanent_errors as exc:
                    if self.ledger.enabled:
                        self.ledger.emit(
                            "run_end",
                            status="failed",
                            wall_s=time.perf_counter() - run_t0,
                            error=repr(exc),
                            **_kernels_field(),
                        )
                    raise
                except self.transient_errors as exc:
                    last_exc = exc
                    if attempt == res.max_retries:
                        break  # next rung
                    retries += 1
                    backoff_s = self._backoff(attempt)
                    self.ledger.emit(
                        "retry",
                        attempt=attempt + 1,
                        execution=backend,
                        replay=replay_mode,
                        cause=repr(exc),
                        backoff_s=backoff_s,
                    )
                    continue
                self.last_outcome = RunOutcome(
                    backend=backend,
                    requested_backend=requested,
                    attempts=total_attempts,
                    retries=retries,
                    degradations=degradations,
                    replay=replay_mode,
                    requested_replay=requested_replay,
                )
                if self.ledger.enabled:
                    self.ledger.emit(
                        "run_end",
                        status="ok",
                        wall_s=time.perf_counter() - run_t0,
                        time_ns=float(report.time_ns),
                        **_kernels_field(),
                    )
                return report

        assert last_exc is not None
        self.last_outcome = RunOutcome(
            backend=ladder[-1][0],
            requested_backend=requested,
            attempts=total_attempts,
            retries=retries,
            degradations=degradations,
            replay=ladder[-1][1],
            requested_replay=requested_replay,
        )
        if self.ledger.enabled:
            self.ledger.emit(
                "run_end",
                status="failed",
                wall_s=time.perf_counter() - run_t0,
                error=repr(last_exc),
                **_kernels_field(),
            )
        raise last_exc
