"""The service's persistent worker pool: streaming, supervised, leased.

:class:`~repro.sweep.runner.SweepRunner` drains a *batch* (a grid) and
returns; a service needs the same machinery — long-lived ``fork``
workers with private duplex pipes, sentinel-multiplexed death
detection, lease-bumped requeue, poison-job quarantine — but fed by a
*stream* of single jobs arriving at arbitrary times, each answered
through its own :class:`concurrent.futures.Future`.  This module reuses
the runner's worker primitives (:class:`~repro.sweep.runner._Worker`,
:class:`~repro.sweep.runner._JobPayload`,
:func:`~repro.sweep.runner._execute_job`) verbatim and replaces only
the orchestration:

- a **priority heap** orders pending jobs by (priority rank, arrival
  sequence) — interactive before batch, FIFO within a class;
- a **wakeup pipe** joins the ``multiprocessing.connection.wait``
  select set, so a submission from the HTTP thread unblocks the pool
  thread without polling;
- **foreign leases defer** rather than block: a key held by another
  process (a concurrent ``repro sweep --shard`` on the same cache)
  is retried on a poll interval, and resolves from the cache the
  moment the peer publishes;
- results **publish to the cache before the lease releases and before
  the future resolves** — the ordering that makes coalescing's
  at-most-once-per-key argument airtight (see
  :mod:`repro.service.coalesce`).

Worker death handling is the PR 9 ladder: sentinel fires with no
buffered result → lease attempt bump → requeue (priority preserved) →
after ``max_attempts`` a quarantine manifest is written and the future
fails with :class:`ServiceQuarantined` (the server maps it to a 5xx
carrying the manifest path).
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SpadeError
from repro.jobmodel import JobResult, JobSpec
from repro.obs.ledger import (
    NULL_LEDGER,
    close_shard_dir,
    merge_shards,
    open_shard_dir,
)
from repro.sweep.cache import ResultCache
from repro.sweep.lease import open_leases
from repro.sweep.runner import (
    _JobPayload,
    _Worker,
    _execute_job,
    _mp_wait,
    _pool_context,
)
from repro.telemetry import ensure

_PRIORITY_RANK = {"interactive": 0, "batch": 1}


class ServiceQuarantined(SpadeError):
    """A job exhausted its attempts; the manifest has the post-mortem."""

    def __init__(self, key: str, error: str,
                 manifest_path: Optional[str]) -> None:
        super().__init__(error)
        self.key = key
        self.manifest_path = manifest_path


class ServiceExecutionError(SpadeError):
    """The cell raised inside a worker (simulation bug, bad point)."""


@dataclass(order=True)
class _Submission:
    """One leader's execution request, heap-ordered by priority."""

    rank: Tuple[int, int]
    spec: JobSpec = field(compare=False)
    cell: Callable[[Any, Tuple], Any] = field(compare=False)
    resilience: Any = field(compare=False)
    future: Future = field(compare=False)
    attempt: int = field(compare=False, default=1)
    claimed: bool = field(compare=False, default=False)


class ServicePool:
    """Supervised worker pool consuming a stream of leader submissions.

    Runs its own dispatcher thread; ``submit`` is callable from any
    thread and returns immediately.  Exactly one of these exists per
    service process, sharing the service's cache/lease directories with
    any concurrent sweep runners.
    """

    def __init__(
        self,
        cache: ResultCache,
        workers: int = 2,
        telemetry=None,
        ledger=None,
        chaos=None,
        max_attempts: int = 3,
        lease_dir: Optional[str] = None,
        lease_ttl_s: float = 30.0,
        foreign_poll_s: float = 0.05,
    ) -> None:
        if workers < 1:
            raise SpadeError(
                f"service pool needs >= 1 worker, got {workers}"
            )
        self.cache = cache
        self.workers = workers
        self.max_attempts = max_attempts
        self.foreign_poll_s = foreign_poll_s
        self.chaos = chaos
        self.leases = open_leases(
            lease_dir or cache.default_lease_dir(), ttl_s=lease_ttl_s
        )
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        # Job shards go to a directory of our own: other runners may
        # share the ledger directory, and each merges only its shards.
        self._shard_dir = (
            str(open_shard_dir(self.ledger)) if self.ledger.enabled
            else None
        )
        self.telemetry = ensure(telemetry)
        metrics = self.telemetry.metrics
        self._m_executed = metrics.counter(
            "spade_service_executions",
            help="simulations executed by the service pool",
        )
        self._m_requeued = metrics.counter(
            "spade_service_requeued",
            help="service jobs requeued after their worker died",
        )
        self._m_quarantined = metrics.counter(
            "spade_service_quarantined",
            help="poison service jobs quarantined after attempt exhaustion",
        )
        self._m_restarted = metrics.counter(
            "spade_service_workers_restarted",
            help="service pool workers replaced after dying",
        )
        self._m_depth = metrics.gauge(
            "spade_service_queue_depth",
            help="service jobs waiting for a worker",
        )
        self._ctx = _pool_context()
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._inbox: List[_Submission] = []
        self._heap: List[_Submission] = []
        self._deferred: List[Tuple[float, _Submission]] = []
        self._halt = threading.Event()
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        self._pool: List[_Worker] = []
        self.executed = 0
        self.requeued = 0
        self.quarantined = 0
        self.failed = 0
        self._thread = threading.Thread(
            target=self._run, name="service-pool", daemon=True
        )
        self._thread.start()

    # -- submission (any thread) ----------------------------------------

    def submit(
        self,
        spec: JobSpec,
        cell: Callable[[Any, Tuple], Any],
        resilience: Any = None,
        priority: str = "interactive",
    ) -> Future:
        """Queue one leader execution; the future resolves to a
        :class:`~repro.jobmodel.JobResult` (source ``"executed"`` or
        ``"cached"`` if a peer published first) or fails with
        :class:`ServiceQuarantined` / :class:`ServiceExecutionError`."""
        if self._halt.is_set():
            raise SpadeError("service pool is shut down")
        sub = _Submission(
            rank=(_PRIORITY_RANK.get(priority, 1), next(self._seq)),
            spec=spec,
            cell=cell,
            resilience=resilience,
            future=Future(),
        )
        with self._lock:
            self._inbox.append(sub)
        self._wake()
        return sub.future

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except (OSError, ValueError):
            pass

    # -- dispatcher thread ----------------------------------------------

    def _run(self) -> None:
        for _ in range(self.workers):
            self._pool.append(_Worker(self._ctx))
        try:
            while True:
                self._absorb_inbox()
                self._revive_deferred()
                self._dispatch_ready()
                if self._halt.is_set() and self._idle():
                    break
                self._select()
        finally:
            self._shutdown_workers()
            self._fail_remaining()

    def _idle(self) -> bool:
        with self._lock:
            empty_inbox = not self._inbox
        return (
            empty_inbox
            and not self._heap
            and not self._deferred
            and all(w.state is None for w in self._pool)
        )

    def _absorb_inbox(self) -> None:
        with self._lock:
            incoming, self._inbox = self._inbox, []
        for sub in incoming:
            heapq.heappush(self._heap, sub)
        if incoming:
            self._m_depth.set(len(self._heap))

    def _revive_deferred(self) -> None:
        now = time.monotonic()
        still: List[Tuple[float, _Submission]] = []
        for retry_at, sub in self._deferred:
            if now >= retry_at:
                heapq.heappush(self._heap, sub)
            else:
                still.append((retry_at, sub))
        self._deferred = still

    def _dispatch_ready(self) -> None:
        for worker in self._pool:
            if worker.state is not None:
                continue
            sub = self._next_runnable()
            if sub is None:
                break
            self._dispatch(worker, sub)
        self._m_depth.set(len(self._heap))

    def _next_runnable(self) -> Optional[_Submission]:
        """Pop the next submission that holds (or just won) its lease.

        Mirrors the runner's claim-at-dispatch walk: quarantined keys
        fail fast, foreign-held keys defer, and the cache is re-probed
        under a fresh claim so a peer's published result short-circuits
        execution."""
        while self._heap:
            sub = heapq.heappop(self._heap)
            if sub.future.cancelled():
                if sub.claimed:
                    self.leases.release(sub.spec.key)
                continue
            if sub.claimed:
                return sub  # requeued after a death, lease retained
            key = sub.spec.key
            manifest = self.leases.is_quarantined(key)
            if manifest is not None:
                self.quarantined += 1
                sub.future.set_exception(ServiceQuarantined(
                    key,
                    f"quarantined: {manifest.get('error', 'unknown')}",
                    str(self.leases.quarantine_path(key)),
                ))
                continue
            attempt = self.leases.try_claim(key)
            if attempt is None:
                # A live foreign runner holds it; check back shortly —
                # its published result will satisfy the cache re-probe.
                hit, value = self.cache.get(key)
                if hit:
                    sub.future.set_result(
                        JobResult(key=key, value=value, source="cached")
                    )
                    continue
                self._deferred.append(
                    (time.monotonic() + self.foreign_poll_s, sub)
                )
                continue
            hit, value = self.cache.get(key)
            if hit:
                self.leases.release(key)
                sub.future.set_result(
                    JobResult(key=key, value=value, source="cached")
                )
                continue
            if attempt > self.max_attempts:
                self._poison(
                    sub,
                    f"attempts exhausted: lease records {attempt - 1} "
                    f"prior attempt(s) by dead owners",
                )
                continue
            sub.attempt = attempt
            sub.claimed = True
            return sub
        return None

    def _dispatch(self, worker: _Worker, sub: _Submission) -> None:
        shard = None
        if self._shard_dir is not None:
            shard = (self._shard_dir, sub.spec.key, "serve")
        payload = _JobPayload(
            index=sub.spec.index,
            cell=sub.cell,
            env=None,
            point=sub.spec.point,
            seed=sub.spec.seed,
            resilience=sub.resilience,
            shard=shard,
            attempt=sub.attempt,
            chaos=self.chaos,
            lease_path=self.leases.path_for(sub.spec.key),
            lease_interval_s=self.leases.ttl_s / 4.0,
            in_worker=True,
        )
        try:
            worker.conn.send(payload)
        except (OSError, ValueError):
            # Worker died idle: replace it, requeue without burning an
            # attempt (the job never reached the dead process).
            heapq.heappush(self._heap, sub)
            self._replace(worker)
            return
        worker.state = sub  # type: ignore[assignment]

    def _select(self) -> None:
        busy = [w for w in self._pool if w.state is not None]
        conn_map = {w.conn: w for w in busy}
        sentinel_map = {w.proc.sentinel: w for w in busy}
        timeout = 1.0
        if self._deferred:
            now = time.monotonic()
            soonest = min(at for at, _ in self._deferred)
            timeout = min(timeout, max(0.0, soonest - now))
        ready = _mp_wait(
            [self._wake_r] + list(conn_map) + list(sentinel_map),
            timeout=timeout,
        )
        dead: List[_Worker] = []
        for obj in ready:
            if obj is self._wake_r:
                try:
                    while self._wake_r.poll(0):
                        self._wake_r.recv()
                except (EOFError, OSError):
                    pass
                continue
            worker = conn_map.get(obj)
            if worker is not None:
                if worker.state is None:
                    continue
                try:
                    result = worker.conn.recv()
                except (EOFError, OSError):
                    if worker not in dead:
                        dead.append(worker)
                    continue
                sub, worker.state = worker.state, None
                self._finish(sub, result)
            else:
                worker = sentinel_map[obj]
                if worker.state is None:
                    continue
                try:
                    has_result = worker.conn.poll(0)
                except (OSError, ValueError):
                    has_result = False
                if not has_result and worker not in dead:
                    dead.append(worker)
        for worker in dead:
            self._handle_death(worker)

    # -- outcomes --------------------------------------------------------

    def _finish(self, sub: _Submission,
                result: Tuple[int, bool, Any, int]) -> None:
        _, ok, value, pid = result
        key = sub.spec.key
        if ok:
            # Publish before releasing the lease and before resolving
            # the future: peers and late joiners must find the result.
            self.cache.put(key, value)
            self.leases.release(key)
            self.executed += 1
            self._m_executed.inc()
            sub.future.set_result(JobResult(
                key=key, value=value, source="executed",
                attempt=sub.attempt, worker_pid=pid,
            ))
        else:
            self.leases.release(key)
            self.failed += 1
            sub.future.set_exception(
                ServiceExecutionError(f"job {key[:16]} failed: {value}")
            )
        if self._shard_dir is not None:
            # Only this job's shard: the worker closed it before
            # replying, while other in-flight jobs are still appending
            # to theirs.
            merge_shards(
                self._shard_dir, self.ledger, jobs=[(sub.spec.index, key)]
            )

    def _handle_death(self, worker: _Worker) -> None:
        sub = worker.state
        if sub is None:
            self._replace(worker)
            return
        worker.state = None
        worker.proc.join(timeout=5.0)
        error = (
            f"worker died (pid={worker.proc.pid}, "
            f"exitcode={worker.proc.exitcode}) while executing "
            f"attempt {sub.attempt}"
        )
        next_attempt = self.leases.bump(sub.spec.key)
        if next_attempt is None:
            next_attempt = sub.attempt + 1
        sub.attempt = next_attempt
        self._replace(worker)
        if next_attempt > self.max_attempts:
            self._poison(sub, error)
            return
        self.requeued += 1
        self._m_requeued.inc()
        if self.ledger.enabled:
            self.ledger.emit(
                "sweep_job",
                index=sub.spec.index,
                status="requeued",
                key=sub.spec.key,
                driver="serve",
                error=error,
                pid=os.getpid(),
                attempt=next_attempt,
            )
        heapq.heappush(self._heap, sub)

    def _poison(self, sub: _Submission, error: str) -> None:
        key = sub.spec.key
        executed = sub.attempt - 1
        manifest_path = self.leases.quarantine(key, {
            "driver": "serve",
            "index": sub.spec.index,
            "point": repr(sub.spec.point),
            "attempts": executed,
            "error": error,
        })
        self.quarantined += 1
        self._m_quarantined.inc()
        if self.ledger.enabled:
            self.ledger.emit(
                "sweep_job",
                index=sub.spec.index,
                status="quarantined",
                key=key,
                driver="serve",
                error=error,
                pid=os.getpid(),
                attempt=executed,
            )
        sub.future.set_exception(
            ServiceQuarantined(key, error, str(manifest_path))
        )

    def _replace(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=1.0)
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(timeout=2.0)
        self._pool[self._pool.index(worker)] = _Worker(self._ctx)
        self._m_restarted.inc()

    # -- shutdown --------------------------------------------------------

    def _shutdown_workers(self) -> None:
        for worker in self._pool:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in self._pool:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)
        self._pool = []

    def _fail_remaining(self) -> None:
        leftovers = list(self._heap) + [s for _, s in self._deferred]
        with self._lock:
            leftovers += self._inbox
            self._inbox = []
        self._heap = []
        self._deferred = []
        for sub in leftovers:
            if sub.claimed:
                self.leases.release(sub.spec.key)
            if not sub.future.done():
                sub.future.set_exception(
                    SpadeError("service pool shut down before execution")
                )

    def close(self, timeout_s: float = 30.0) -> None:
        """Drain in-flight work, stop workers, join the dispatcher."""
        self._halt.set()
        self._wake()
        self._thread.join(timeout=timeout_s)
        try:
            self._wake_w.close()
            self._wake_r.close()
        except OSError:
            pass
        if self._shard_dir is not None:
            close_shard_dir(self._shard_dir, self.ledger)
            self._shard_dir = None

    # -- inspection ------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            inbox = len(self._inbox)
        return {
            "workers": self.workers,
            "queued": len(self._heap) + inbox,
            "deferred": len(self._deferred),
            "executed": self.executed,
            "requeued": self.requeued,
            "quarantined": self.quarantined,
            "failed": self.failed,
        }
