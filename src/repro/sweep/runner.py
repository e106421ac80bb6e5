"""Process-parallel sweep orchestration with deterministic merge.

:class:`SweepRunner` evaluates a benchmark grid — a list of hashable
points plus one pure cell function — on the supervised worker pool of
:mod:`repro.sweep.pool` and merges the results back **in grid order**,
so the output list (and any ``BENCH_*.json`` serialised from it) is
byte-identical to a serial run.  The determinism argument (DESIGN.md
section 9) rests on three facts:

1. cells are pure functions of ``(env, point)`` — every RNG they touch
   is explicitly seeded, and the pool additionally seeds the global
   ``random`` / ``numpy.random`` state per job from the job key, so a
   job computes identical bytes on any worker in any order;
2. results are indexed by grid position and reassembled by index, so
   pool completion order is irrelevant;
3. cached results are the pickled bytes of a previous identical job,
   addressed by a content hash over (schema version, driver, config
   fingerprint, workload fingerprint) — a cache hit *is* the serial
   result.

``map_grid`` probes the cache first, then runs the remaining jobs as
one pool batch (in the calling process when ``jobs=1``).  The pool
skips a job a quarantine manifest already names, claims each job's
lease at dispatch, requeues a job whose worker died, and quarantines a
job whose attempts exhaust ``max_attempts``: under ``keep_going`` a
quarantined or failed cell becomes a ``None`` hole and the rest of the
grid completes; otherwise the sweep fails with one
:class:`~repro.errors.SweepJobError` after the batch (completed work
still lands in the cache).  ``shard=(i, N)`` runs the same grid
concurrently from N processes or hosts sharing one cache+lease
directory: each runner executes the keys it wins, waits for keys a
live peer holds, and reclaims stale leases from dead peers — every
runner returns the complete grid-order result list.  See
DESIGN.md section 13.

Progress is counted once, in :class:`SweepReport`; the
``spade_sweep_*`` metrics are derived from it
(:func:`repro.obs.metrics.sweep_metrics`).
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SweepError, SweepJobError
from repro.obs.ledger import NULL_LEDGER
from repro.jobmodel import JobSpec, build_jobs
from repro.sweep.cache import ResultCache
from repro.sweep.lease import open_leases
from repro.sweep.pool import ServicePool, ServiceQuarantined


@dataclass
class SweepReport:
    """Job accounting for one or more ``map_grid`` calls."""

    total: int = 0
    completed: int = 0
    cached: int = 0
    failed: int = 0
    requeued: int = 0
    quarantined: int = 0
    restarted: int = 0
    """Pool workers replaced after dying."""

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
        self.restarted += other.restarted

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


@dataclass
class _GridRun:
    """Mutable state for one ``map_grid`` call."""

    driver: str
    report: SweepReport
    results: Dict[int, Any] = field(default_factory=dict)
    failures: List[Tuple[Tuple, str]] = field(default_factory=list)


class SweepRunner:
    """Runs a grid of jobs as one worker-pool batch; merges in grid
    order."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        resilience=None,
        ledger=None,
        chaos=None,
        max_attempts: int = 3,
        keep_going: bool = False,
        shard: Optional[Tuple[int, int]] = None,
        lease_dir: Optional[str] = None,
        lease_ttl_s: float = 30.0,
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
        if lease_dir is None and cache is not None:
            lease_dir = cache.default_lease_dir()
        self.leases = open_leases(lease_dir, ttl_s=lease_ttl_s)
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self.report = SweepReport()

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
        run = _GridRun(driver=driver, report=SweepReport(total=len(specs)))
        pending: List[JobSpec] = []
        for spec in specs:
            if self.cache is not None:
                hit, value = self.cache.get(spec.key)
                if hit:
                    self._note_cached(run, spec, value)
                    continue
            pending.append(spec)

        if pending:
            if self.shard is not None:
                # Start each shard runner's claim walk at a different
                # offset so N runners fan out over the grid instead of
                # colliding on job 0 and serialising.
                index, count = self.shard
                offset = (index * len(pending)) // count
                pending = pending[offset:] + pending[:offset]
            pool = ServicePool(
                self.cache,
                workers=0 if self.jobs == 1 else min(self.jobs, len(pending)),
                ledger=self.ledger,
                chaos=self.chaos,
                max_attempts=self.max_attempts,
                lease_dir=self.leases.directory if self.leases else None,
                lease_ttl_s=self.lease_ttl_s,
            )
            try:
                futures = pool.run_batch(
                    pending, cell, env, self._job_resilience(env)
                )
            finally:
                # Merges this call's job shards into the ledger in grid
                # order.
                pool.close()
            for spec, future in zip(pending, futures):
                self._note_outcome(run, spec, future)
            run.report.requeued += pool.requeued
            run.report.restarted += pool.restarted

        self.report.merge(run.report)
        if run.failures and not self.keep_going:
            run.failures.sort(key=lambda f: repr(f[0]))
            raise SweepJobError(driver, run.failures)
        return [run.results.get(i) for i in range(len(specs))]

    # -- outcome handling ------------------------------------------------

    def _note_outcome(
        self, run: _GridRun, spec: JobSpec, future: Future
    ) -> None:
        exc = future.exception()
        if exc is None:
            result = future.result()
            if result.source == "cached":
                self._note_cached(run, spec, result.value)
                return
            run.results[spec.index] = result.value
            run.report.completed += 1
        elif isinstance(exc, ServiceQuarantined):
            if exc.manifest is not None:
                # A peer (or an earlier run) quarantined it.
                self._note_quarantine_manifest(run, spec, exc.manifest)
                return
            run.report.quarantined += 1
            if not self.keep_going:
                run.failures.append((spec.point, str(exc)))
        else:
            run.report.failed += 1
            if not self.keep_going:
                run.failures.append((spec.point, exc.error))

    def _note_cached(self, run: _GridRun, spec: JobSpec, value: Any) -> None:
        run.results[spec.index] = value
        run.report.cached += 1
        self.ledger.emit(
            "cache_hit", index=spec.index, key=spec.key, driver=run.driver
        )

    def _note_quarantine_manifest(
        self, run: _GridRun, spec: JobSpec, manifest: Dict[str, Any]
    ) -> None:
        """A quarantine manifest written by an earlier run or a peer
        runner (the pool recorded its ``sweep_job`` event): skip the
        job, surfacing it per the keep-going policy."""
        error = str(manifest.get("error", "quarantined"))
        run.report.quarantined += 1
        if not self.keep_going:
            owner = manifest.get("owner", "unknown")
            run.failures.append((
                spec.point,
                f"quarantined (by {owner}): {error} — clear "
                f"{self.leases.quarantine_path(spec.key)} to retry",
            ))


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
