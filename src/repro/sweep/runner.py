"""Crash-safe process-parallel sweep orchestration with deterministic merge.

:class:`SweepRunner` evaluates a benchmark grid — a list of hashable
points plus one pure cell function — across a **supervised worker
pool** and merges the results back **in grid order**, so the output
list (and any ``BENCH_*.json`` serialised from it) is byte-identical to
a serial run.  The determinism argument (DESIGN.md section 9) rests on
three facts:

1. cells are pure functions of ``(env, point)`` — every RNG they touch
   is explicitly seeded, and the runner additionally seeds the global
   ``random`` / ``numpy.random`` state per job from the job key, so a
   job computes identical bytes on any worker in any order;
2. results are indexed by grid position and reassembled by index, so
   pool completion order is irrelevant;
3. cached results are the pickled bytes of a previous identical job,
   addressed by a content hash over (schema version, driver, config
   fingerprint, workload fingerprint) — a cache hit *is* the serial
   result.

Unlike the PR 5 ``multiprocessing.Pool`` drain, the pool survives
worker *death* (SIGKILL, OOM): each long-lived ``ctx.Process`` worker
has a private duplex pipe (a shared queue's internal lock would be
poisoned by a holder dying mid-``put``), and the parent multiplexes
result pipes with each worker's process **sentinel** via
``multiprocessing.connection.wait``.  A sentinel firing with no
buffered result means the worker died mid-job; the in-flight job is
requeued with its attempt count bumped and a replacement worker is
spawned.  A job whose attempts exhaust ``max_attempts`` is **poison**:
under ``keep_going`` it is quarantined (machine-readable manifest +
``sweep_job status="quarantined"`` ledger event +
``spade_sweep_jobs_quarantined`` counter) and the rest of the grid
completes; otherwise the sweep fails with the usual
:class:`~repro.errors.SweepJobError`.

When a result cache is configured the runner layers the
:mod:`~repro.sweep.lease` protocol over it: every job is *claimed*
before execution, claims are heartbeat while the job runs (by the
worker) or waits (by the parent), and attempt counts live in the lease
file so they survive runner death.  ``shard=(i, N)`` runs the same grid
concurrently from N processes or hosts sharing one cache+lease
directory: each runner executes the keys it wins, polls the cache for
keys a live foreign runner holds, and reclaims stale leases from dead
runners — every runner returns the complete grid-order result list,
byte-identical to serial.  See DESIGN.md section 13.

Each worker wraps its cell in the PR 4 :class:`RunSupervisor`, so
watchdog/retry/degradation policies apply per job; failed jobs are
collected (not raised mid-drain) so completed work still lands in the
cache, then surfaced as one :class:`~repro.errors.SweepJobError`.
Progress is published through the PR 2 telemetry registry:
``spade_sweep_jobs_{completed,cached,failed,requeued,quarantined}``
counters, ``spade_sweep_workers_restarted``, and the
``spade_sweep_queue_depth`` gauge.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _mp_wait
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import SweepError, SweepJobError
from repro.obs.ledger import (
    NULL_LEDGER,
    RunLedger,
    close_shard_dir,
    open_shard_dir,
    shard_path,
)
from repro.jobmodel import JobSpec, build_jobs
from repro.sweep.cache import ResultCache
from repro.sweep.lease import LeaseManager, heartbeat_path, open_leases
from repro.telemetry import ensure


@dataclass
class SweepReport:
    """Job accounting for one or more ``map_grid`` calls."""

    total: int = 0
    completed: int = 0
    cached: int = 0
    failed: int = 0
    requeued: int = 0
    quarantined: int = 0

    @property
    def executed_fraction(self) -> float:
        return self.completed / self.total if self.total else 0.0

    @property
    def cached_fraction(self) -> float:
        return self.cached / self.total if self.total else 0.0

    def merge(self, other: "SweepReport") -> None:
        self.total += other.total
        self.completed += other.completed
        self.cached += other.cached
        self.failed += other.failed
        self.requeued += other.requeued
        self.quarantined += other.quarantined

    def summary(self) -> str:
        text = (
            f"{self.total} jobs: {self.completed} executed, "
            f"{self.cached} cached, {self.failed} failed"
        )
        # Only surface the crash-recovery columns when they fired, so
        # the common no-fault summary line stays stable for tooling.
        if self.requeued:
            text += f", {self.requeued} requeued"
        if self.quarantined:
            text += f", {self.quarantined} quarantined"
        return text


def _seed_job_rngs(seed: int) -> None:
    """Pin the *global* RNGs before a cell runs.

    Cells are expected to seed their own generators; this guards the
    ones they don't own (library code reaching for module-level state),
    making every job's RNG view a function of its key alone — identical
    under any worker count.
    """
    random.seed(seed)
    try:
        import numpy as np

        np.random.seed(seed % 2**32)
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass


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


def _execute_job(payload: _JobPayload) -> Tuple[int, bool, Any, int]:
    """Run one job attempt (in a worker process or inline).

    Returns ``(index, ok, value_or_message, pid)``; exceptions are
    folded into strings so a failed job cannot poison the pool's result
    pipe with an unpicklable traceback object.  When the sweep carries a
    ledger, each job writes its lifecycle events to a private shard file
    (one writer per file — no cross-process lock needed); the parent
    merges shards back in grid order after the drain.
    """
    from repro.resilience import ChaosMonkey, RunSupervisor

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
        value = supervisor.call(
            lambda: payload.cell(payload.env, payload.point)
        )
    except BaseException as exc:  # noqa: BLE001 - reported, then raised
        if ledger.enabled:
            ledger.emit(
                "sweep_job",
                index=index,
                status="failed",
                key=key,
                driver=driver,
                wall_s=time.perf_counter() - t0,
                error=f"{type(exc).__name__}: {exc}",
                pid=pid,
                attempt=payload.attempt,
            )
            ledger.close()
        if heartbeat is not None:
            heartbeat.stop()
        return index, False, f"{type(exc).__name__}: {exc}", pid
    if ledger.enabled:
        ledger.emit(
            "sweep_job",
            index=index,
            status="completed",
            key=key,
            driver=driver,
            wall_s=time.perf_counter() - t0,
            pid=pid,
            attempt=payload.attempt,
        )
        ledger.close()
    if heartbeat is not None:
        heartbeat.stop()
    return index, True, value, pid


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
        self.state: Optional["_JobState"] = None


@dataclass
class _JobState:
    """A claimed job waiting for (or undergoing) execution."""

    spec: JobSpec
    attempt: int = 1


@dataclass
class _GridRun:
    """Mutable state for one ``map_grid`` call."""

    driver: str
    env: Any
    cell: Callable[[Any, Tuple], Any]
    resilience: Any
    report: SweepReport
    results: Dict[int, Any] = field(default_factory=dict)
    failures: List[Tuple[Tuple, str]] = field(default_factory=list)
    quarantined: List[Tuple[Tuple, str]] = field(default_factory=list)
    skipped: List[Tuple[Tuple, str]] = field(default_factory=list)
    worker_pids: Dict[int, int] = field(default_factory=dict)
    shard_dir: Optional[str] = None
    """This call's private ledger-shard directory (ledger runs only)."""


class _ClaimHeartbeat(threading.Thread):
    """Parent-side heartbeat for claimed-but-not-dispatched leases.

    In-flight jobs are heartbeat by their worker (so a lease goes stale
    when the worker stalls or dies, even if the parent survives); jobs
    waiting in the requeue belong to nobody's worker, so the parent
    keeps them fresh here.
    """

    def __init__(self, leases: LeaseManager, interval_s: float) -> None:
        super().__init__(name="sweep-claim-heartbeat", daemon=True)
        self._leases = leases
        self._interval_s = max(0.05, interval_s)
        self._halt = threading.Event()
        self._lock = threading.Lock()
        self._keys: set = set()

    def add(self, key: str) -> None:
        with self._lock:
            self._keys.add(key)

    def remove(self, key: str) -> None:
        with self._lock:
            self._keys.discard(key)

    def run(self) -> None:
        while not self._halt.wait(self._interval_s):
            with self._lock:
                keys = list(self._keys)
            for key in keys:
                self._leases.heartbeat(key)

    def stop(self) -> None:
        self._halt.set()


class SweepRunner:
    """Fans a grid of jobs over a supervised worker pool; merges in
    grid order."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        telemetry=None,
        resilience=None,
        ledger=None,
        chaos=None,
        max_attempts: int = 3,
        keep_going: bool = False,
        shard: Optional[Tuple[int, int]] = None,
        lease_dir: Optional[str] = None,
        lease_ttl_s: float = 30.0,
        heartbeat_s: Optional[float] = None,
        foreign_poll_s: float = 0.05,
        foreign_timeout_s: Optional[float] = None,
    ) -> None:
        if jobs < 1:
            raise SweepError(f"sweep jobs must be >= 1, got {jobs}")
        if max_attempts < 1:
            raise SweepError(
                f"sweep max_attempts must be >= 1, got {max_attempts}"
            )
        if shard is not None:
            index, count = shard
            if count < 1:
                raise SweepError(
                    f"sweep shard runner count must be >= 1, "
                    f"got {index}/{count}"
                )
            if not 0 <= index < count:
                # Shards are 0-based; spell out the valid range so a
                # 1-based "N/N" slip gets a fix-it, not just a bound.
                raise SweepError(
                    f"sweep shard index is 0-based: valid shards for "
                    f"{count} runner(s) are 0/{count} .. "
                    f"{count - 1}/{count}, got {index}/{count}"
                )
            if cache is None:
                raise SweepError(
                    "sharded sweeps need a shared result cache "
                    "(--cache-dir): the cache is how shard runners "
                    "exchange results"
                )
        self.jobs = jobs
        self.cache = cache
        self.resilience = resilience
        self.chaos = chaos
        self.max_attempts = max_attempts
        self.keep_going = keep_going
        self.shard = shard
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_s = (
            heartbeat_s if heartbeat_s is not None else lease_ttl_s / 4.0
        )
        self.foreign_poll_s = foreign_poll_s
        self.foreign_timeout_s = foreign_timeout_s
        if lease_dir is None and cache is not None:
            lease_dir = cache.default_lease_dir()
        self.leases = open_leases(lease_dir, ttl_s=lease_ttl_s)
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self.telemetry = ensure(telemetry)
        self.report = SweepReport()
        self._claim_hb: Optional[_ClaimHeartbeat] = None
        metrics = self.telemetry.metrics
        self._completed = metrics.counter(
            "spade_sweep_jobs_completed",
            help="sweep jobs executed by a worker",
        )
        self._cached = metrics.counter(
            "spade_sweep_jobs_cached",
            help="sweep jobs served from the result cache",
        )
        self._failed = metrics.counter(
            "spade_sweep_jobs_failed",
            help="sweep jobs that raised in a worker",
        )
        self._requeued = metrics.counter(
            "spade_sweep_jobs_requeued",
            help="sweep jobs requeued after their worker died",
        )
        self._quarantined = metrics.counter(
            "spade_sweep_jobs_quarantined",
            help="poison sweep jobs quarantined after attempt exhaustion",
        )
        self._workers_restarted = metrics.counter(
            "spade_sweep_workers_restarted",
            help="sweep pool workers replaced after dying",
        )
        self._queue_depth = metrics.gauge(
            "spade_sweep_queue_depth",
            help="sweep jobs waiting for a worker",
        )

    # -- policy ----------------------------------------------------------

    def _job_resilience(self, env):
        """Per-job supervision policy: explicit override first, then the
        environment's watchdog/retry knobs, then all-off."""
        if self.resilience is not None:
            return self.resilience
        if hasattr(env, "resilience_config"):
            return env.resilience_config()
        from repro.config import ResilienceConfig

        return ResilienceConfig()

    # -- lease bookkeeping ----------------------------------------------

    def _hb_add(self, key: str) -> None:
        if self._claim_hb is not None:
            self._claim_hb.add(key)

    def _hb_remove(self, key: str) -> None:
        if self._claim_hb is not None:
            self._claim_hb.remove(key)

    def _release(self, key: str) -> None:
        self._hb_remove(key)
        if self.leases is not None:
            self.leases.release(key)

    # -- orchestration ---------------------------------------------------

    def map_grid(
        self,
        driver: str,
        env: Any,
        cell: Callable[[Any, Tuple], Any],
        points: Sequence[Tuple],
    ) -> List[Any]:
        """Evaluate ``cell(env, point)`` for every point, in parallel,
        returning results in grid order.

        ``cell`` must be a module-level function (workers import it by
        reference) and its results must be picklable.  Under
        ``keep_going`` quarantined/failed grid positions come back as
        ``None`` holes instead of raising.
        """
        specs = build_jobs(driver, env, points)
        run = _GridRun(
            driver=driver,
            env=env,
            cell=cell,
            resilience=None,
            report=SweepReport(total=len(specs)),
        )
        pending: List[JobSpec] = []
        for spec in specs:
            if self.cache is not None:
                hit, value = self.cache.get(spec.key)
                if hit:
                    self._note_cached(run, spec, value, depth=False)
                    continue
            if self.leases is not None:
                manifest = self.leases.is_quarantined(spec.key)
                if manifest is not None:
                    self._note_quarantine_manifest(
                        run, spec, manifest, depth=False
                    )
                    continue
            pending.append(spec)
        self._queue_depth.set(len(pending))

        if pending:
            run.resilience = self._job_resilience(env)
            if self.shard is not None:
                # Start each shard runner's claim walk at a different
                # offset so N runners fan out over the grid instead of
                # colliding on job 0 and serialising.
                index, count = self.shard
                offset = (index * len(pending)) // count
                pending = pending[offset:] + pending[:offset]
            if self.leases is not None and self._claim_hb is None:
                self._claim_hb = _ClaimHeartbeat(
                    self.leases, self.heartbeat_s
                )
                self._claim_hb.start()
            if self.ledger.enabled:
                run.shard_dir = str(open_shard_dir(self.ledger))
            try:
                ctx = _pool_context()
                queue: Deque[Union[JobSpec, _JobState]] = deque(pending)
                foreign = self._drain(run, ctx, queue)
                if foreign:
                    self._resolve_foreign(run, ctx, foreign)
            finally:
                if self._claim_hb is not None:
                    self._claim_hb.stop()
                    self._claim_hb = None
            tracer = getattr(self.telemetry, "tracer", None)
            if tracer is not None:
                for sort_index, pid in enumerate(sorted(run.worker_pids)):
                    tracer.set_process_name(
                        pid,
                        f"sweep worker {pid}",
                        sort_index=sort_index + 1,
                    )
            if run.shard_dir is not None:
                close_shard_dir(run.shard_dir, self.ledger)
        self._queue_depth.set(0)

        self.report.merge(run.report)
        if run.failures and not self.keep_going:
            run.failures.sort(key=lambda f: repr(f[0]))
            raise SweepJobError(driver, run.failures)
        if len(run.results) < len(specs):
            return [run.results.get(i) for i in range(len(specs))]
        return [run.results[i] for i in range(len(specs))]

    # -- outcome handling ------------------------------------------------

    def _note_cached(
        self, run: _GridRun, spec: JobSpec, value: Any, depth: bool = True
    ) -> None:
        run.results[spec.index] = value
        run.report.cached += 1
        self._cached.inc()
        self.ledger.emit(
            "cache_hit", index=spec.index, key=spec.key, driver=run.driver
        )
        if depth:
            self._queue_depth.inc(-1)

    def _note_quarantine_manifest(
        self,
        run: _GridRun,
        spec: JobSpec,
        manifest: Dict[str, Any],
        depth: bool = True,
    ) -> None:
        """A quarantine manifest written by us or a peer runner: skip
        the job, surfacing it per the keep-going policy."""
        error = str(manifest.get("error", "quarantined"))
        attempts = manifest.get("attempts")
        run.report.quarantined += 1
        self._quarantined.inc()
        event: Dict[str, Any] = dict(
            index=spec.index,
            status="quarantined",
            key=spec.key,
            driver=run.driver,
            error=error,
            pid=os.getpid(),
        )
        if isinstance(attempts, int):
            event["attempt"] = attempts
        self.ledger.emit("sweep_job", **event)
        run.quarantined.append((spec.point, error))
        if not self.keep_going:
            owner = manifest.get("owner", "unknown")
            run.failures.append((
                spec.point,
                f"quarantined (by {owner}): {error} — clear "
                f"{self.leases.quarantine_path(spec.key)} to retry",
            ))
        if depth:
            self._queue_depth.inc(-1)

    def _poison(self, run: _GridRun, state: _JobState, error: str) -> None:
        """Attempts exhausted: quarantine (and drop our lease)."""
        spec = state.spec
        # ``state.attempt`` is the would-be-next attempt at poison time;
        # the manifest records how many attempts actually executed.
        executed = state.attempt - 1
        self._hb_remove(spec.key)
        run.report.quarantined += 1
        self._quarantined.inc()
        if self.leases is not None:
            self.leases.quarantine(spec.key, {
                "driver": run.driver,
                "index": spec.index,
                "point": repr(spec.point),
                "attempts": executed,
                "error": error,
            })
        self.ledger.emit(
            "sweep_job",
            index=spec.index,
            status="quarantined",
            key=spec.key,
            driver=run.driver,
            error=error,
            pid=os.getpid(),
            attempt=executed,
        )
        run.quarantined.append((spec.point, error))
        if not self.keep_going:
            run.failures.append((spec.point, error))
        self._queue_depth.inc(-1)

    def _handle_result(
        self,
        run: _GridRun,
        state: _JobState,
        result: Tuple[int, bool, Any, int],
    ) -> None:
        index, ok, value, pid = result
        spec = state.spec
        run.worker_pids.setdefault(pid, index)
        if ok:
            run.results[index] = value
            run.report.completed += 1
            self._completed.inc()
            if self.cache is not None:
                # Publish before releasing the lease: a peer that wins
                # the freed claim must find the result, not re-execute.
                self.cache.put(spec.key, value)
            self._release(spec.key)
        else:
            self._release(spec.key)
            run.report.failed += 1
            self._failed.inc()
            if self.keep_going:
                run.skipped.append((spec.point, value))
            else:
                run.failures.append((spec.point, value))
        self._queue_depth.inc(-1)

    def _handle_death(
        self,
        run: _GridRun,
        worker: _Worker,
        queue: Deque[Union[JobSpec, _JobState]],
    ) -> None:
        """A busy worker died: requeue its job (attempt bumped) or, when
        attempts are exhausted, quarantine it."""
        state, worker.state = worker.state, None
        assert state is not None
        worker.proc.join(timeout=5.0)
        spec = state.spec
        error = (
            f"worker died (pid={worker.proc.pid}, "
            f"exitcode={worker.proc.exitcode}) while executing "
            f"attempt {state.attempt}"
        )
        next_attempt = None
        if self.leases is not None:
            next_attempt = self.leases.bump(spec.key)
        if next_attempt is None:
            # No lease (or it was stolen after a stall): fall back to
            # the in-memory attempt carried by the job state.
            next_attempt = state.attempt + 1
        state.attempt = next_attempt
        if next_attempt > self.max_attempts:
            self._poison(run, state, error)
            return
        run.report.requeued += 1
        self._requeued.inc()
        self._hb_add(spec.key)
        self.ledger.emit(
            "sweep_job",
            index=spec.index,
            status="requeued",
            key=spec.key,
            driver=run.driver,
            error=error,
            pid=os.getpid(),
            attempt=next_attempt,
        )
        queue.append(state)

    # -- claiming --------------------------------------------------------

    def _next_state(
        self,
        run: _GridRun,
        queue: Deque[Union[JobSpec, _JobState]],
        foreign: List[JobSpec],
    ) -> Optional[_JobState]:
        """Pop the next runnable job, claiming its lease lazily.

        Claim-at-dispatch (rather than claim-the-whole-grid upfront) is
        what lets concurrent shard runners share a grid: each runner
        only owns what it is about to execute.
        """
        while queue:
            item = queue.popleft()
            if isinstance(item, _JobState):
                return item  # requeued job, already claimed
            spec = item
            if self.leases is None:
                return _JobState(spec, attempt=1)
            manifest = self.leases.is_quarantined(spec.key)
            if manifest is not None:
                self._note_quarantine_manifest(run, spec, manifest)
                continue
            attempt = self.leases.try_claim(spec.key)
            if attempt is None:
                foreign.append(spec)
                continue
            if self.cache is not None:
                # Re-probe under the claim: a peer may have published
                # between our initial probe and winning the lease.
                hit, value = self.cache.get(spec.key)
                if hit:
                    self._release(spec.key)
                    self._note_cached(run, spec, value)
                    continue
            if attempt > self.max_attempts:
                self._poison(
                    run,
                    _JobState(spec, attempt),
                    f"attempts exhausted: lease records "
                    f"{attempt - 1} prior attempt(s) by dead owners",
                )
                continue
            self._hb_add(spec.key)
            return _JobState(spec, attempt)
        return None

    def _payload(self, run: _GridRun, state: _JobState) -> _JobPayload:
        spec = state.spec
        shard = None
        if run.shard_dir is not None:
            shard = (run.shard_dir, spec.key, run.driver)
        lease_path = None
        if self.leases is not None:
            lease_path = self.leases.path_for(spec.key)
        return _JobPayload(
            index=spec.index,
            cell=run.cell,
            env=run.env,
            point=spec.point,
            seed=spec.seed,
            resilience=run.resilience,
            shard=shard,
            attempt=state.attempt,
            chaos=self.chaos,
            lease_path=lease_path,
            lease_interval_s=self.heartbeat_s,
            in_worker=self.jobs > 1,
        )

    # -- pool ------------------------------------------------------------

    def _drain(
        self,
        run: _GridRun,
        ctx,
        queue: Deque[Union[JobSpec, _JobState]],
    ) -> List[JobSpec]:
        """Execute every claimable job in ``queue``; returns the specs
        held by live foreign runners (to be resolved afterwards)."""
        foreign: List[JobSpec] = []
        if self.jobs == 1:
            while True:
                state = self._next_state(run, queue, foreign)
                if state is None:
                    break
                # In-flight heartbeats run inside _execute_job.
                self._hb_remove(state.spec.key)
                result = _execute_job(self._payload(run, state))
                self._handle_result(run, state, result)
            return foreign

        workers: List[_Worker] = []
        try:
            while True:
                for worker in list(workers):
                    if worker.state is not None:
                        continue
                    state = self._next_state(run, queue, foreign)
                    if state is None:
                        break
                    self._dispatch(run, worker, state, queue, workers, ctx)
                while len(workers) < self.jobs and queue:
                    state = self._next_state(run, queue, foreign)
                    if state is None:
                        break
                    worker = _Worker(ctx)
                    workers.append(worker)
                    self._dispatch(run, worker, state, queue, workers, ctx)
                busy = [w for w in workers if w.state is not None]
                if not busy:
                    if queue:
                        continue  # requeued work appeared after deaths
                    break
                self._collect(run, busy, workers, queue, ctx)
        finally:
            self._shutdown(workers)
        return foreign

    def _dispatch(
        self,
        run: _GridRun,
        worker: _Worker,
        state: _JobState,
        queue: Deque[Union[JobSpec, _JobState]],
        workers: List[_Worker],
        ctx,
    ) -> None:
        # The worker heartbeats the lease while executing; until the
        # payload lands, the parent claim-heartbeat covers the gap.
        try:
            worker.conn.send(self._payload(run, state))
        except (OSError, ValueError):
            # Worker died idle (never got the job — no attempt burned).
            queue.appendleft(state)
            self._hb_add(state.spec.key)
            self._retire(worker)
            workers.remove(worker)
            self._workers_restarted.inc()
            workers.append(_Worker(ctx))
            return
        worker.state = state

    def _collect(
        self,
        run: _GridRun,
        busy: List[_Worker],
        workers: List[_Worker],
        queue: Deque[Union[JobSpec, _JobState]],
        ctx,
    ) -> None:
        """Wait for a result or a death on any busy worker."""
        conn_map = {w.conn: w for w in busy}
        sentinel_map = {w.proc.sentinel: w for w in busy}
        ready = _mp_wait(
            list(conn_map) + list(sentinel_map), timeout=1.0
        )
        dead: List[_Worker] = []
        for obj in ready:
            worker = conn_map.get(obj)
            if worker is not None:
                if worker.state is None:
                    continue
                try:
                    result = worker.conn.recv()
                except (EOFError, OSError):
                    dead.append(worker)
                    continue
                state, worker.state = worker.state, None
                self._handle_result(run, state, result)
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
                if not dead.count(worker) and not has_result:
                    dead.append(worker)
        for worker in dict.fromkeys(dead):
            if worker.state is None:
                continue
            self._handle_death(run, worker, queue)
            self._retire(worker)
            workers.remove(worker)
            if queue:
                self._workers_restarted.inc()
                workers.append(_Worker(ctx))

    def _retire(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=1.0)
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(timeout=2.0)

    def _shutdown(self, workers: List[_Worker]) -> None:
        for worker in workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in workers:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)

    # -- foreign jobs ----------------------------------------------------

    def _resolve_foreign(
        self, run: _GridRun, ctx, foreign: List[JobSpec]
    ) -> None:
        """Jobs a live peer runner holds: poll the shared cache for
        their results; reclaim and execute if the peer's lease goes
        stale (it died) — so every shard runner eventually returns the
        complete grid."""
        remaining: Dict[int, JobSpec] = {
            spec.index: spec for spec in foreign
        }
        deadline = (
            time.monotonic() + self.foreign_timeout_s
            if self.foreign_timeout_s is not None
            else None
        )
        while remaining:
            progressed = False
            claimed: Deque[Union[JobSpec, _JobState]] = deque()
            for index in sorted(remaining):
                spec = remaining[index]
                hit, value = self.cache.get(spec.key)
                if hit:
                    self._note_cached(run, spec, value)
                    del remaining[index]
                    progressed = True
                    continue
                manifest = self.leases.is_quarantined(spec.key)
                if manifest is not None:
                    self._note_quarantine_manifest(run, spec, manifest)
                    del remaining[index]
                    progressed = True
                    continue
                attempt = self.leases.try_claim(spec.key)
                if attempt is None:
                    continue  # peer is alive; keep waiting
                del remaining[index]
                progressed = True
                hit, value = self.cache.get(spec.key)
                if hit:
                    self._release(spec.key)
                    self._note_cached(run, spec, value)
                    continue
                if attempt > self.max_attempts:
                    self._poison(
                        run,
                        _JobState(spec, attempt),
                        f"attempts exhausted: lease records "
                        f"{attempt - 1} prior attempt(s) by dead owners",
                    )
                    continue
                self._hb_add(spec.key)
                claimed.append(_JobState(spec, attempt))
            if claimed:
                self._drain(run, ctx, claimed)
            if remaining and not progressed:
                if deadline is not None and time.monotonic() > deadline:
                    for index in sorted(remaining):
                        spec = remaining[index]
                        message = (
                            "timed out waiting for foreign lease holder "
                            f"after {self.foreign_timeout_s:g}s"
                        )
                        run.report.failed += 1
                        self._failed.inc()
                        if self.keep_going:
                            run.skipped.append((spec.point, message))
                        else:
                            run.failures.append((spec.point, message))
                        self._queue_depth.inc(-1)
                    return
                time.sleep(self.foreign_poll_s)


def sweep_map(
    sweep: Optional[SweepRunner],
    driver: str,
    env: Any,
    cell: Callable[[Any, Tuple], Any],
    points: Sequence[Tuple],
) -> List[Any]:
    """Driver-side entry point: run a grid through ``sweep`` when one is
    configured, else evaluate serially in-process (the pre-sweep code
    path, kept for embedding and tests)."""
    if sweep is None:
        return [cell(env, point) for point in points]
    return sweep.map_grid(driver, env, cell, points)
