"""The supervised worker pool behind sweeps and the simulation service.

Every result the evaluation reports is a grid of independent
``(matrix, config)`` cells.  ``repro experiment`` runs a grid as one
batch (:meth:`ServicePool.run_batch`, driven by
:meth:`~repro.sweep.runner.SweepRunner.map_grid`); ``repro serve``
feeds the same pool a stream of single jobs
(:meth:`ServicePool.submit`), each answered through its own
:class:`concurrent.futures.Future`.  Both callers probe the result
cache before they submit, so the pool always executes.  The pool owns:

- **workers** — long-lived ``fork`` processes, each with a private
  duplex pipe (a shared queue's internal lock would be poisoned by a
  holder dying mid-``put``).  The dispatcher multiplexes the pipes with
  every busy worker's process **sentinel** through
  ``multiprocessing.connection.wait``: a readable pipe is a result, a
  fired sentinel with nothing buffered is a death;
- **the dispatcher** — one thread, woken through a pipe on submission,
  popping jobs from a heap ordered by (priority rank, arrival) —
  interactive before batch, FIFO within a class;
- **death** — the job's attempt count (kept on its submission) is
  bumped and the job requeued with its priority, or, past
  ``max_attempts``, quarantined: the key enters this pool's in-memory
  quarantine map, and a later submission of it fails fast with
  :class:`ServiceQuarantined` for the pool's lifetime;
- **the outcome order** — publish to the cache, merge the job's ledger
  shard, resolve the future (DESIGN.md §13).

With ``workers=0`` there are no processes and no thread: a submission
runs through the same outcome code in the calling thread before it
returns (``SweepRunner(jobs=1)``).
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

_PRIORITY_RANK = {"interactive": 0, "batch": 1}


class ServiceQuarantined(SpadeError):
    """A job's worker died on each of its ``attempts``; the pool
    refuses the key from then on."""

    def __init__(self, key: str, error: str, attempts: int) -> None:
        super().__init__(error)
        self.key = key
        self.attempts = attempts


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
    in_worker: bool = False
    """Process-level chaos (SIGKILL) only arms in a pool worker — an
    inline job shares the runner's process and must not kill it."""


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
    """The label of the job's ledger events."""
    merge: bool = field(compare=False, default=True)
    """Merge the job's ledger shard before resolving its future.  A
    sweep batch leaves its shards to :meth:`ServicePool.close`, which
    merges them in grid order."""
    attempt: int = field(compare=False, default=1)
    """The attempt being run (or next to run): 1 plus the deaths so far."""


class ServicePool:
    """Supervised worker pool for sweep batches and service streams.

    With workers, ``submit`` and ``run_batch`` are callable from any
    thread.  Other processes may write the same cache directory at the
    same time (DESIGN.md §13): a race on one key costs duplicate work,
    never a wrong or torn entry.
    """

    def __init__(
        self,
        cache: Optional[ResultCache],
        workers: int = 2,
        ledger=None,
        chaos=None,
        max_attempts: int = 3,
    ) -> None:
        if workers < 0:
            raise SpadeError(f"pool workers must be >= 0, got {workers}")
        self.cache = cache
        self.workers = workers
        self.max_attempts = max_attempts
        self.chaos = chaos
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
        self._quarantine: Dict[str, Tuple[int, str]] = {}
        """Poison keys: key -> (attempts, last error).  Dispatcher-only."""
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
        :class:`~repro.jobmodel.JobResult` (source ``"executed"``) or
        fails with :class:`ServiceQuarantined` /
        :class:`ServiceExecutionError`."""
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
            and all(w.state is None for w in self._pool)
        )

    def _absorb_inbox(self) -> None:
        """Queue new submissions; a key this pool quarantined fails
        fast without reaching a worker."""
        with self._lock:
            incoming, self._inbox = self._inbox, []
        for sub in incoming:
            poison = self._quarantine.get(sub.spec.key)
            if poison is None:
                heapq.heappush(self._heap, sub)
            else:
                self._refuse(sub, *poison)

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
        """Pop the next job an interrupted batch did not cancel."""
        while self._heap:
            sub = heapq.heappop(self._heap)
            if not sub.future.cancelled():
                return sub
        return None

    def _payload(self, sub: _Submission) -> _JobPayload:
        spec = sub.spec
        shard = None
        if self._shard_dir is not None:
            shard = (self._shard_dir, spec.key, sub.driver)
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
        """Block until a submission, a result or a worker death."""
        busy = [w for w in self._pool if w.state is not None]
        conn_map = {w.conn: w for w in busy}
        sentinel_map = {w.proc.sentinel: w for w in busy}
        ready = _mp_wait(
            [self._wake_r] + list(conn_map) + list(sentinel_map)
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

    def _settle(self, sub: _Submission, outcome: Any) -> None:
        if sub.future.done():
            return  # cancelled by an interrupted batch
        if isinstance(outcome, BaseException):
            sub.future.set_exception(outcome)
        else:
            sub.future.set_result(outcome)

    def _finish(self, sub: _Submission,
                result: Tuple[int, bool, Any]) -> None:
        """The outcome order: publish, merge, resolve.  Whoever the
        future wakes finds the result in the cache and the job in the
        ledger."""
        _, ok, value = result
        key = sub.spec.key
        outcome: Any
        if ok:
            if self.cache is not None:
                self.cache.put(key, value)
            self.executed += 1
            outcome = JobResult(
                key=key, value=value, source="executed",
                attempt=sub.attempt,
            )
        else:
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
        attempts are exhausted, quarantine its key."""
        sub, worker.state = worker.state, None
        worker.proc.join(timeout=5.0)
        error = (
            f"worker died (pid={worker.proc.pid}, "
            f"exitcode={worker.proc.exitcode}) while executing "
            f"attempt {sub.attempt}"
        )
        self._replace(worker)
        if sub.attempt >= self.max_attempts:
            self._quarantine[sub.spec.key] = (sub.attempt, error)
            self._refuse(sub, sub.attempt, error)
            return
        sub.attempt += 1
        self.requeued += 1
        self._emit(sub, "requeued", error, sub.attempt)
        heapq.heappush(self._heap, sub)

    def _refuse(self, sub: _Submission, attempts: int, error: str) -> None:
        """Fail ``sub`` as poison: its key's worker died ``attempts``
        times in this pool."""
        self.quarantined += 1
        self._emit(sub, "quarantined", error, attempts)
        self._settle(sub, ServiceQuarantined(sub.spec.key, error, attempts))

    def _emit(self, sub: _Submission, status: str, error: str,
              attempt: int) -> None:
        if self.ledger.enabled:
            self.ledger.emit(
                "sweep_job",
                index=sub.spec.index,
                status=status,
                key=sub.spec.key,
                driver=sub.driver,
                error=error,
                pid=os.getpid(),
                attempt=attempt,
            )

    def _replace(self, worker: _Worker) -> None:
        # Forks from the dispatcher thread while other threads run.  The
        # child inherits no import lock trouble because a job imports
        # nothing there: the ``run`` job path is imported with the
        # ``repro`` package (tests/test_worker_pool.py pins it).
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
        leftovers = list(self._heap)
        leftovers += [w.state for w in self._pool if w.state is not None]
        with self._lock:
            leftovers += self._inbox
            self._inbox = []
        self._heap = []
        for sub in leftovers:
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
            "executed": self.executed,
            "requeued": self.requeued,
            "quarantined": self.quarantined,
            "failed": self.failed,
            "restarted": self.restarted,
        }
