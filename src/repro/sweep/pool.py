"""The supervised worker pool behind sweeps and the simulation service.

Every result the evaluation reports is a grid of independent
``(matrix, config)`` cells.  ``repro sweep``/``experiment`` run a grid
as one batch (:meth:`ServicePool.run_batch`, driven by
:meth:`~repro.sweep.runner.SweepRunner.map_grid`); ``repro serve``
feeds the same pool a stream of single jobs
(:meth:`ServicePool.submit`), each answered through its own
:class:`concurrent.futures.Future`.  The pool owns:

- **workers** — long-lived ``fork`` processes, each with a private
  duplex pipe (a shared queue's internal lock would be poisoned by a
  holder dying mid-``put``).  The dispatcher multiplexes the pipes with
  every busy worker's process **sentinel** through
  ``multiprocessing.connection.wait``: a readable pipe is a result, a
  fired sentinel with nothing buffered is a death;
- **the dispatcher** — one thread, woken through a pipe on submission,
  popping jobs from a heap ordered by (priority rank, arrival) —
  interactive before batch, FIFO within a class;
- **the claim walk** — a quarantined key fails fast, a claimed key is
  re-probed in the cache (a peer may have published first), and a key
  whose lease records ``max_attempts`` dead owners is poison;
- **foreign leases** — a key a live peer holds is deferred and polled
  every :data:`FOREIGN_POLL_S`: it resolves from the cache once the
  peer publishes, or is reclaimed when the peer's lease goes stale;
- **death** — lease attempt bump, then requeue (priority kept) or, past
  ``max_attempts``, quarantine;
- **the claim heartbeat** — claimed jobs waiting in the heap (requeued
  after a death) belong to no worker, so the dispatcher refreshes their
  leases every ``ttl/4``;
- **the outcome order** — publish to the cache, release the lease,
  merge the job's ledger shard, resolve the future (DESIGN.md §13).

With ``workers=0`` there are no processes and no thread: a submission
runs through the same claim walk and outcome code in the calling
thread before it returns (``SweepRunner(jobs=1)``).
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import random
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _mp_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SpadeError
from repro.jobmodel import JobResult, JobSpec
from repro.obs.ledger import (
    NULL_LEDGER,
    RunLedger,
    close_shard_dir,
    merge_shards,
    open_shard_dir,
    shard_path,
)
from repro.resilience import ChaosMonkey, RunSupervisor
from repro.sweep.cache import ResultCache
from repro.sweep.lease import heartbeat_path, open_leases

_PRIORITY_RANK = {"interactive": 0, "batch": 1}

FOREIGN_POLL_S = 0.05
"""How often a key held by a live foreign runner is re-probed."""


class ServiceQuarantined(SpadeError):
    """A job exhausted its attempts; the manifest has the post-mortem."""

    def __init__(
        self,
        key: str,
        error: str,
        manifest_path: Optional[str],
        manifest: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(error)
        self.key = key
        self.manifest_path = manifest_path
        self.manifest = manifest
        """The manifest the claim walk found when the key was already
        quarantined; ``None`` when this pool quarantined it."""


class ServiceExecutionError(SpadeError):
    """The cell raised inside a worker (simulation bug, bad point)."""

    def __init__(self, key: str, error: str) -> None:
        super().__init__(f"job {key[:16]} failed: {error}")
        self.error = error


# -- the worker side ---------------------------------------------------------


def _seed_job_rngs(seed: int) -> None:
    """Pin the *global* RNGs before a cell runs.

    Cells are expected to seed their own generators; this guards the
    ones they don't own (library code reaching for module-level state),
    making every job's RNG view a function of its key alone — identical
    under any worker count.
    """
    random.seed(seed)
    np.random.seed(seed % 2**32)


@dataclass
class _JobPayload:
    """Everything a worker needs to run one job attempt."""

    index: int
    cell: Callable[[Any, Tuple], Any]
    env: Any
    point: Tuple
    seed: int
    resilience: Any
    shard: Optional[Tuple[str, str, str]]  # (ledger dir, key, driver)
    attempt: int = 1
    chaos: Any = None  # ChaosConfig (picklable frozen dataclass)
    lease_path: Optional[str] = None
    lease_interval_s: float = 0.0
    in_worker: bool = False
    """Process-level chaos (SIGKILL) only arms in a pool worker — an
    inline job shares the runner's process and must not kill it."""


class _LeaseHeartbeat(threading.Thread):
    """Refreshes one lease file's mtime while its job runs."""

    def __init__(self, path: str, interval_s: float) -> None:
        super().__init__(name="sweep-lease-heartbeat", daemon=True)
        self._path = path
        self._interval_s = max(0.05, interval_s)
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval_s):
            heartbeat_path(self._path)

    def stop(self) -> None:
        self._halt.set()


def _execute_job(payload: _JobPayload) -> Tuple[int, bool, Any]:
    """Run one job attempt (in a worker process or inline).

    Returns ``(index, ok, value_or_message)``; exceptions are
    folded into strings so a failed job cannot poison the pool's result
    pipe with an unpicklable traceback object.  When the pool carries a
    ledger, each job writes its lifecycle events to a private shard file
    (one writer per file — no cross-process lock needed) that the parent
    merges back.
    """
    index = payload.index
    _seed_job_rngs(payload.seed)
    pid = os.getpid()
    monkey = (
        ChaosMonkey(payload.chaos) if payload.chaos is not None else None
    )
    ledger = NULL_LEDGER
    key = driver = None
    if payload.shard is not None:
        shard_dir, key, driver = payload.shard
        ledger = RunLedger(
            shard_path(shard_dir, index, key), run_id=key[:16]
        )
        ledger.emit(
            "sweep_job",
            index=index,
            status="started",
            key=key,
            driver=driver,
            pid=pid,
            attempt=payload.attempt,
        )
        # Flush immediately: if this attempt dies to a SIGKILL the
        # started-with-no-completed event is the post-mortem evidence.
        ledger.flush()
    heartbeat = None
    if (
        payload.lease_path is not None
        and payload.lease_interval_s > 0
        and not (monkey is not None and monkey.stall_lease_heartbeat())
    ):
        heartbeat = _LeaseHeartbeat(
            payload.lease_path, payload.lease_interval_s
        )
        heartbeat.start()
    if monkey is not None and payload.in_worker:
        # Real process death: when selected, this call does not return.
        monkey.sweep_kill(index, payload.attempt)
    supervisor = RunSupervisor(
        resilience=payload.resilience, ledger=ledger, chaos=monkey
    )
    t0 = time.perf_counter()
    try:
        ok, value = True, supervisor.call(
            lambda: payload.cell(payload.env, payload.point)
        )
    except BaseException as exc:  # noqa: BLE001 - reported as a failure
        ok, value = False, f"{type(exc).__name__}: {exc}"
    if ledger.enabled:
        ledger.emit(
            "sweep_job",
            index=index,
            status="completed" if ok else "failed",
            key=key,
            driver=driver,
            wall_s=time.perf_counter() - t0,
            pid=pid,
            attempt=payload.attempt,
            **({} if ok else {"error": value}),
        )
        ledger.close()
    if heartbeat is not None:
        heartbeat.stop()
    return index, ok, value


def _worker_main(conn) -> None:
    """Long-lived pool worker: pull payloads, push results, until the
    parent sends ``None`` or disappears."""
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            break  # parent died or closed our pipe
        if payload is None:
            break
        result = _execute_job(payload)
        try:
            conn.send(result)
        except (OSError, ValueError):
            break
    try:
        conn.close()
    except OSError:
        pass


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class _Worker:
    """One supervised pool worker: a process plus its private pipe."""

    __slots__ = ("conn", "proc", "state")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.state: Optional["_Submission"] = None

    def retire(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2.0)


# -- the parent side ---------------------------------------------------------


@dataclass(order=True)
class _Submission:
    """One job waiting for (or undergoing) execution, heap-ordered by
    priority then arrival."""

    rank: Tuple[int, int]
    spec: JobSpec = field(compare=False)
    cell: Callable[[Any, Tuple], Any] = field(compare=False)
    resilience: Any = field(compare=False)
    future: Future = field(compare=False)
    env: Any = field(compare=False, default=None)
    driver: str = field(compare=False, default="serve")
    """The label of the job's ledger events and quarantine manifest."""
    merge: bool = field(compare=False, default=True)
    """Merge the job's ledger shard before resolving its future.  A
    sweep batch leaves its shards to :meth:`ServicePool.close`, which
    merges them in grid order."""
    attempt: int = field(compare=False, default=1)
    claimed: bool = field(compare=False, default=False)


class ServicePool:
    """Supervised worker pool for sweep batches and service streams.

    With workers, ``submit`` and ``run_batch`` are callable from any
    thread.  The pool shares its cache and lease directories with every
    other pool (a service, concurrent ``repro sweep --shard`` runners)
    pointed at them.
    """

    def __init__(
        self,
        cache: Optional[ResultCache],
        workers: int = 2,
        ledger=None,
        chaos=None,
        max_attempts: int = 3,
        lease_dir: Optional[str] = None,
        lease_ttl_s: float = 30.0,
    ) -> None:
        if workers < 0:
            raise SpadeError(f"pool workers must be >= 0, got {workers}")
        self.cache = cache
        self.workers = workers
        self.max_attempts = max_attempts
        self.chaos = chaos
        if lease_dir is None and cache is not None:
            lease_dir = cache.default_lease_dir()
        self.leases = open_leases(lease_dir, ttl_s=lease_ttl_s)
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        # Job shards go to a directory of our own: other pools may
        # share the ledger directory, and each merges only its shards.
        self._shard_dir = (
            str(open_shard_dir(self.ledger)) if self.ledger.enabled
            else None
        )
        self._ctx = _pool_context()
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._inbox: List[_Submission] = []
        self._heap: List[_Submission] = []
        self._deferred: List[Tuple[float, _Submission]] = []
        self._next_heartbeat = 0.0
        self._halt = threading.Event()
        self._pool: List[_Worker] = []
        self.executed = 0
        self.requeued = 0
        self.quarantined = 0
        self.failed = 0
        self.restarted = 0
        self._thread: Optional[threading.Thread] = None
        if workers:
            self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
            # Fork the workers before the dispatcher thread exists: a
            # child forked beside a running thread inherits whatever
            # locks that thread held at the fork.
            try:
                for _ in range(workers):
                    self._pool.append(_Worker(self._ctx))
            except BaseException:
                self._shutdown_workers()
                self._wake_r.close()
                self._wake_w.close()
                raise
            self._thread = threading.Thread(
                target=self._run, name="worker-pool", daemon=True
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
        """Queue one service execution; the future resolves to a
        :class:`~repro.jobmodel.JobResult` (source ``"executed"`` or
        ``"cached"`` if a peer published first) or fails with
        :class:`ServiceQuarantined` / :class:`ServiceExecutionError`."""
        sub = _Submission(
            (_PRIORITY_RANK.get(priority, 1), next(self._seq)),
            spec, cell, resilience, Future(),
        )
        self._enqueue([sub])
        return sub.future

    def run_batch(
        self,
        specs: Sequence[JobSpec],
        cell: Callable[[Any, Tuple], Any],
        env: Any,
        resilience: Any,
    ) -> List[Future]:
        """Run one sweep batch to completion, in ``specs`` order; returns
        one done future per spec.  Each job is labelled with its own
        driver, and its ledger shard stays in this pool's shard directory
        until :meth:`close` merges them all in grid order."""
        subs = [
            _Submission(
                (_PRIORITY_RANK["batch"], next(self._seq)),
                spec, cell, resilience, Future(),
                env=env, driver=spec.driver, merge=False,
            )
            for spec in specs
        ]
        futures = [sub.future for sub in subs]
        try:
            self._enqueue(subs)
            wait(futures)
        finally:
            # Only an interrupt leaves work behind: drop it so close()
            # does not run it.
            for future in futures:
                future.cancel()
        return futures

    def _enqueue(self, subs: List[_Submission]) -> None:
        if self._halt.is_set():
            raise SpadeError("service pool is shut down")
        with self._lock:
            self._inbox.extend(subs)
        if self._thread is None:
            self._loop()  # no workers: run them in the calling thread
        else:
            self._wake()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"x")
        except (OSError, ValueError):
            pass

    # -- dispatcher -------------------------------------------------------

    def _run(self) -> None:
        try:
            self._loop()
        finally:
            self._fail_remaining()
            self._shutdown_workers()

    def _loop(self) -> None:
        """Dispatch until idle: for good when the pool has no thread
        (the inline batch), else once :meth:`close` asked for it."""
        while True:
            self._absorb_inbox()
            self._revive_deferred()
            self._heartbeat_claims()
            self._dispatch_ready()
            if (self._thread is None or self._halt.is_set()) \
                    and self._idle():
                return
            self._select()

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

    def _revive_deferred(self) -> None:
        now = time.monotonic()
        still: List[Tuple[float, _Submission]] = []
        for retry_at, sub in self._deferred:
            if now >= retry_at:
                heapq.heappush(self._heap, sub)
            else:
                still.append((retry_at, sub))
        self._deferred = still

    def _heartbeat_claims(self) -> None:
        """Refresh the leases of claimed jobs waiting in the heap: no
        worker heartbeats them until they are dispatched."""
        if self.leases is None:
            return
        now = time.monotonic()
        if now < self._next_heartbeat:
            return
        self._next_heartbeat = now + self.leases.ttl_s / 4.0
        for sub in self._heap:
            if sub.claimed:
                self.leases.heartbeat(sub.spec.key)

    def _dispatch_ready(self) -> None:
        if self._thread is None:
            sub = self._next_runnable()
            while sub is not None:
                self._finish(sub, _execute_job(self._payload(sub)))
                sub = self._next_runnable()
            return
        for worker in self._pool:
            if worker.state is not None:
                continue
            sub = self._next_runnable()
            if sub is None:
                break
            self._dispatch(worker, sub)

    def _next_runnable(self) -> Optional[_Submission]:
        """Pop the next job that holds (or just won) its lease.

        Claim-at-dispatch (rather than claim-the-whole-grid upfront) is
        what lets concurrent runners share a grid: each only owns what
        it is about to execute."""
        while self._heap:
            sub = heapq.heappop(self._heap)
            key = sub.spec.key
            if sub.future.cancelled():
                if sub.claimed:
                    self._release(key)
                continue
            if sub.claimed:
                return sub  # requeued after a death, lease retained
            if self.leases is not None:
                manifest = self.leases.is_quarantined(key)
                if manifest is not None:
                    # Quarantined by an earlier run or a peer runner.
                    self.quarantined += 1
                    attempts = manifest.get("attempts")
                    self._emit(
                        sub, "quarantined",
                        str(manifest.get("error", "quarantined")),
                        attempts if isinstance(attempts, int) else None,
                    )
                    self._settle(sub, ServiceQuarantined(
                        key,
                        f"quarantined: {manifest.get('error', 'unknown')}",
                        self.leases.quarantine_path(key),
                        manifest,
                    ))
                    continue
                attempt = self.leases.try_claim(key)
                if attempt is None:
                    # A live foreign runner holds it: poll until its
                    # result is published or its lease goes stale.
                    if not self._from_cache(sub):
                        self._deferred.append(
                            (time.monotonic() + FOREIGN_POLL_S, sub)
                        )
                    continue
                # Re-probe under the claim: a peer may have published
                # between the caller's probe and our winning the lease.
                if self._from_cache(sub):
                    continue
                if attempt > self.max_attempts:
                    self._poison(
                        sub,
                        f"attempts exhausted: lease records "
                        f"{attempt - 1} prior attempt(s) by dead owners",
                    )
                    continue
                sub.attempt = attempt
            sub.claimed = True
            return sub
        return None

    def _from_cache(self, sub: _Submission) -> bool:
        """Answer ``sub`` from the cache if a result is published,
        dropping our claim on the key if we hold one."""
        if self.cache is None:
            return False
        hit, value = self.cache.get(sub.spec.key)
        if hit:
            self._release(sub.spec.key)
            self._settle(
                sub, JobResult(key=sub.spec.key, value=value, source="cached")
            )
        return hit

    def _payload(self, sub: _Submission) -> _JobPayload:
        spec = sub.spec
        shard = None
        if self._shard_dir is not None:
            shard = (self._shard_dir, spec.key, sub.driver)
        lease_path = None
        if self.leases is not None:
            lease_path = self.leases.path_for(spec.key)
        return _JobPayload(
            index=spec.index,
            cell=sub.cell,
            env=sub.env,
            point=spec.point,
            seed=spec.seed,
            resilience=sub.resilience,
            shard=shard,
            attempt=sub.attempt,
            chaos=self.chaos,
            lease_path=lease_path,
            lease_interval_s=(
                self.leases.ttl_s / 4.0 if self.leases is not None else 0.0
            ),
            in_worker=self._thread is not None,
        )

    def _dispatch(self, worker: _Worker, sub: _Submission) -> None:
        try:
            worker.conn.send(self._payload(sub))
        except (OSError, ValueError):
            # Worker died idle: replace it, requeue without burning an
            # attempt (the job never reached the dead process).
            heapq.heappush(self._heap, sub)
            self._replace(worker)
            return
        worker.state = sub

    def _select(self) -> None:
        timeout = 1.0
        if self.leases is not None:
            timeout = min(timeout, self.leases.ttl_s / 4.0)
        if self._deferred:
            soonest = min(at for at, _ in self._deferred)
            timeout = min(timeout, max(0.0, soonest - time.monotonic()))
        if self._thread is None:
            time.sleep(timeout)  # only deferred foreign keys remain
            return
        busy = [w for w in self._pool if w.state is not None]
        conn_map = {w.conn: w for w in busy}
        sentinel_map = {w.proc.sentinel: w for w in busy}
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
                    # A dead worker's final result may still sit in the
                    # pipe buffer; prefer it over the sentinel.
                    has_result = worker.conn.poll(0)
                except (OSError, ValueError):
                    has_result = False
                if not has_result and worker not in dead:
                    dead.append(worker)
        for worker in dead:
            self._handle_death(worker)

    # -- outcomes --------------------------------------------------------

    def _release(self, key: str) -> None:
        if self.leases is not None:
            self.leases.release(key)

    def _settle(self, sub: _Submission, outcome: Any) -> None:
        if sub.future.done():
            return  # cancelled by an interrupted batch
        if isinstance(outcome, BaseException):
            sub.future.set_exception(outcome)
        else:
            sub.future.set_result(outcome)

    def _finish(self, sub: _Submission,
                result: Tuple[int, bool, Any]) -> None:
        """The outcome order: publish, release, merge, resolve.  Peers
        that win the freed claim find the result instead of executing,
        and whoever the future wakes finds the job in the ledger."""
        _, ok, value = result
        key = sub.spec.key
        outcome: Any
        if ok:
            if self.cache is not None:
                self.cache.put(key, value)
            self._release(key)
            self.executed += 1
            outcome = JobResult(
                key=key, value=value, source="executed",
                attempt=sub.attempt,
            )
        else:
            self._release(key)
            self.failed += 1
            outcome = ServiceExecutionError(key, value)
        if sub.merge and self._shard_dir is not None:
            # Only this job's shard: the worker closed it before
            # replying, while other in-flight jobs still append to theirs.
            merge_shards(
                self._shard_dir, self.ledger, jobs=[(sub.spec.index, key)]
            )
        self._settle(sub, outcome)

    def _handle_death(self, worker: _Worker) -> None:
        """A busy worker died: requeue its job (attempt bumped) or, when
        attempts are exhausted, quarantine it."""
        sub, worker.state = worker.state, None
        worker.proc.join(timeout=5.0)
        error = (
            f"worker died (pid={worker.proc.pid}, "
            f"exitcode={worker.proc.exitcode}) while executing "
            f"attempt {sub.attempt}"
        )
        next_attempt = None
        if self.leases is not None:
            next_attempt = self.leases.bump(sub.spec.key)
        if next_attempt is None:
            # No lease (or it was stolen after a stall): fall back to
            # the in-memory attempt.
            next_attempt = sub.attempt + 1
        sub.attempt = next_attempt
        self._replace(worker)
        if next_attempt > self.max_attempts:
            self._poison(sub, error)
            return
        self.requeued += 1
        self._emit(sub, "requeued", error, next_attempt)
        heapq.heappush(self._heap, sub)

    def _poison(self, sub: _Submission, error: str) -> None:
        """Attempts exhausted: quarantine (and drop our lease)."""
        key = sub.spec.key
        # ``sub.attempt`` is the would-be-next attempt at poison time;
        # the manifest records how many attempts actually executed.
        executed = sub.attempt - 1
        manifest_path = None
        if self.leases is not None:
            manifest_path = self.leases.quarantine(key, {
                "driver": sub.driver,
                "index": sub.spec.index,
                "point": repr(sub.spec.point),
                "attempts": executed,
                "error": error,
            })
        self.quarantined += 1
        self._emit(sub, "quarantined", error, executed)
        self._settle(sub, ServiceQuarantined(key, error, manifest_path))

    def _emit(self, sub: _Submission, status: str, error: str,
              attempt: Optional[int]) -> None:
        if self.ledger.enabled:
            self.ledger.emit(
                "sweep_job",
                index=sub.spec.index,
                status=status,
                key=sub.spec.key,
                driver=sub.driver,
                error=error,
                pid=os.getpid(),
                **({} if attempt is None else {"attempt": attempt}),
            )

    def _replace(self, worker: _Worker) -> None:
        worker.retire()
        self._pool[self._pool.index(worker)] = _Worker(self._ctx)
        self.restarted += 1

    # -- shutdown --------------------------------------------------------

    def _shutdown_workers(self) -> None:
        for worker in self._pool:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in self._pool:
            worker.retire()
        self._pool = []

    def _fail_remaining(self) -> None:
        """Fail every unresolved job.  After a clean close nothing is in
        flight; after a dispatcher crash the in-flight jobs fail too, so
        no caller waits forever."""
        leftovers = list(self._heap) + [s for _, s in self._deferred]
        leftovers += [w.state for w in self._pool if w.state is not None]
        with self._lock:
            leftovers += self._inbox
            self._inbox = []
        self._heap = []
        self._deferred = []
        for sub in leftovers:
            if sub.claimed:
                self._release(sub.spec.key)
            self._settle(
                sub, SpadeError("service pool shut down before execution")
            )

    def close(self, timeout_s: float = 30.0) -> None:
        """Drain in-flight work, stop workers, join the dispatcher, and
        merge the shards still in this pool's shard directory."""
        self._halt.set()
        if self._thread is not None:
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
            "restarted": self.restarted,
        }
