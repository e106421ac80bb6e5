"""Deterministic fault injection for resilience testing.

A :class:`ChaosMonkey` sits on well-defined injection points inside the
engine and checkpoint writer and decides — purely as a function of a
seed and the injection point's coordinates — whether to fire a fault.
Determinism matters more than realism here: the chaos suite asserts
exact recovery behaviour (which PE failed, how many retries it took,
that the resumed output is bit-identical), so the same config must
produce the same faults regardless of thread scheduling or wall clock.

Injection points:

* ``worker_fault(pe_id, chunk_index, backend)`` — raise
  :class:`InjectedFault` from inside chunk generation, exercising the
  engine's error path and the supervisor's retry/degradation ladder.
  Decisions hash ``(seed, pe_id, chunk_index)`` so they are independent
  of which thread runs the chunk and of call order across PEs.
* ``replay_delay()`` — sleep before a trace replay, exercising watchdog
  timeouts without burning CPU.
* ``on_checkpoint_written(path, epoch)`` — truncate a just-written
  checkpoint file, exercising the reader's corruption detection and
  fallback to the previous snapshot.
* ``after_epoch(epoch)`` — raise :class:`InjectedCrash` once after a
  chosen epoch, simulating a kill for kill-then-resume tests.
* ``sweep_kill(index, attempt)`` — ``SIGKILL`` the calling sweep worker
  process at a hash-selected (seed, job) point, exercising the sweep
  pool's dead-worker detection / lease reclamation / requeue /
  quarantine ladder.  Unlike :class:`InjectedFault` this is a *real*
  process death: no exception propagates, no ``finally`` runs.
* ``stall_lease_heartbeat()`` — tell the worker's lease-heartbeat
  thread not to refresh the claim file, so the lease ages out and a
  concurrent shard runner observes (and reclaims) an apparently dead
  owner while the worker is in fact still running.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

_FAULT_STREAM = 0xFA07
"""Domain-separation constant mixed into the worker-fault RNG seed."""

_KILL_STREAM = 0x51C4
"""Domain-separation constant mixed into the sweep-kill RNG seed."""


class InjectedFault(RuntimeError):
    """A deterministic worker fault raised by :class:`ChaosMonkey`."""


class InjectedCrash(RuntimeError):
    """A simulated process kill raised between epochs."""


@dataclass(frozen=True)
class ChaosConfig:
    """What to inject, and where.  Everything defaults to 'nothing'."""

    seed: int = 0
    worker_fault_rate: float = 0.0
    """Per-(pe, chunk) probability of raising :class:`InjectedFault`."""
    worker_faults: Tuple[Tuple[int, int], ...] = ()
    """Explicit (pe_id, chunk_index) pairs that always fault (in
    addition to the rate-based draw)."""
    max_worker_faults: Optional[int] = None
    """Total fault budget across the monkey's lifetime; ``None`` is
    unlimited.  A finite budget lets a retry eventually succeed."""
    fault_backends: Tuple[str, ...] = ("vectorized",)
    """Execution backends whose workers are eligible to fault.  The
    default faults only the fast path, so a supervised run degrades to
    the scalar oracle and completes."""
    replay_delay_s: float = 0.0
    replay_delay_every: int = 0
    """Sleep ``replay_delay_s`` before every Nth trace replay (0 = off)."""
    truncate_checkpoints: Tuple[int, ...] = ()
    """Epoch indices whose checkpoint files get truncated after write."""
    kill_after_epoch: Optional[int] = None
    """Raise :class:`InjectedCrash` once, after this epoch completes
    (and after its checkpoint, if any, was written)."""
    sweep_kills: Tuple[Tuple[int, int], ...] = ()
    """Explicit (job_index, attempt) pairs at which a sweep worker
    SIGKILLs itself.  Listing only attempt 1 makes a job that crashes
    once and then recovers; listing every attempt up to the runner's
    ``max_attempts`` makes a poison job that ends in quarantine."""
    sweep_kill_rate: float = 0.0
    """Per-job probability of a SIGKILL, hashed from (seed, job index)
    so the same grid always loses the same jobs."""
    sweep_kill_attempts: Tuple[int, ...] = (1,)
    """Attempt numbers at which the rate-based kill is eligible to
    fire (by default only the first, so retries survive)."""
    lease_heartbeat_stall: bool = False
    """Suppress lease heartbeats in sweep workers, simulating a live
    owner that looks dead to everyone sharing the lease directory."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.worker_fault_rate <= 1.0:
            raise ValueError("worker_fault_rate must be in [0, 1]")
        if not 0.0 <= self.sweep_kill_rate <= 1.0:
            raise ValueError("sweep_kill_rate must be in [0, 1]")
        if self.replay_delay_s < 0:
            raise ValueError("replay_delay_s must be >= 0")
        if self.replay_delay_every < 0:
            raise ValueError("replay_delay_every must be >= 0")
        if self.max_worker_faults is not None and self.max_worker_faults < 0:
            raise ValueError("max_worker_faults must be >= 0")


class ChaosMonkey:
    """Thread-safe fault injector driven by a :class:`ChaosConfig`."""

    def __init__(
        self,
        config: ChaosConfig,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        self._sleep = sleep
        self._lock = threading.Lock()
        self._explicit = set(config.worker_faults)
        self._replay_calls = 0
        self._crashed = False
        self.worker_faults_injected = 0
        self.replay_delays_injected = 0
        self.checkpoints_truncated = 0
        self.crashes_injected = 0

    # -- injection points ------------------------------------------------

    def worker_fault(
        self, pe_id: int, chunk_index: int, backend: str
    ) -> None:
        """Raise :class:`InjectedFault` if this (pe, chunk) is selected.

        The rate-based decision hashes ``(seed, pe_id, chunk_index)``
        into a fresh RNG, so it is reproducible across runs, threads,
        and interleavings — chunk 7 of PE 3 either always faults or
        never does, for a given seed and rate.
        """
        cfg = self.config
        if backend not in cfg.fault_backends:
            return
        fire = (pe_id, chunk_index) in self._explicit
        if not fire and cfg.worker_fault_rate > 0.0:
            rng = np.random.default_rng(
                (cfg.seed, _FAULT_STREAM, pe_id, chunk_index)
            )
            fire = rng.random() < cfg.worker_fault_rate
        if not fire:
            return
        with self._lock:
            if (
                cfg.max_worker_faults is not None
                and self.worker_faults_injected >= cfg.max_worker_faults
            ):
                return
            self.worker_faults_injected += 1
        raise InjectedFault(
            f"injected worker fault (pe={pe_id}, chunk={chunk_index}, "
            f"backend={backend}, seed={cfg.seed})"
        )

    def replay_delay(self) -> None:
        """Sleep before a trace replay on the configured cadence."""
        cfg = self.config
        if cfg.replay_delay_every <= 0 or cfg.replay_delay_s <= 0:
            return
        with self._lock:
            self._replay_calls += 1
            fire = self._replay_calls % cfg.replay_delay_every == 0
            if fire:
                self.replay_delays_injected += 1
        if fire:
            self._sleep(cfg.replay_delay_s)

    def on_checkpoint_written(self, path: str, epoch: int) -> None:
        """Truncate the checkpoint for ``epoch`` if configured to."""
        if epoch not in self.config.truncate_checkpoints:
            return
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(max(1, size // 2))
        with self._lock:
            self.checkpoints_truncated += 1

    def after_epoch(self, epoch: int) -> None:
        """Simulate a kill after ``epoch`` (fires at most once)."""
        cfg = self.config
        if cfg.kill_after_epoch is None or epoch != cfg.kill_after_epoch:
            return
        with self._lock:
            if self._crashed:
                return
            self._crashed = True
            self.crashes_injected += 1
        raise InjectedCrash(f"injected crash after epoch {epoch}")

    def should_sweep_kill(self, index: int, attempt: int) -> bool:
        """Whether the sweep worker executing (job ``index``, attempt
        ``attempt``) is selected for a SIGKILL.  Pure function of the
        config — reproducible across runs and runner processes."""
        cfg = self.config
        if (index, attempt) in cfg.sweep_kills:
            return True
        if cfg.sweep_kill_rate > 0.0 and attempt in cfg.sweep_kill_attempts:
            rng = np.random.default_rng((cfg.seed, _KILL_STREAM, index))
            return bool(rng.random() < cfg.sweep_kill_rate)
        return False

    def sweep_kill(self, index: int, attempt: int) -> None:
        """SIGKILL the calling process if this (job, attempt) is
        selected.  This does not return when it fires: the point is a
        genuine uncatchable death, so the parent's only evidence is the
        process sentinel — exactly what a real OOM kill looks like."""
        if self.should_sweep_kill(index, attempt):
            os.kill(os.getpid(), signal.SIGKILL)

    def stall_lease_heartbeat(self) -> bool:
        """Whether sweep workers should stop refreshing their lease."""
        return self.config.lease_heartbeat_stall
