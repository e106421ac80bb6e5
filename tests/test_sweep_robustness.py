"""Crash-safety tests for the supervised sweep pool.

Exercises the whole ladder the lease protocol exists for:
worker SIGKILL -> sentinel detection -> lease/attempt bump -> requeue
-> re-execution (parity with serial), and for poison jobs ->
quarantine manifest + ledger event + counter under keep_going.

Cells are module-level (workers import them by reference) and avoid
the simulator entirely so the suite stays tier-1 fast.
"""

import json
import os
import threading
import time

import pytest

from repro.errors import SweepJobError
from repro.obs.ledger import read_events
from repro.resilience import ChaosConfig
from repro.sweep import SweepRunner, build_jobs, open_cache
from repro.sweep.lease import LeaseManager
from repro.obs import sweep_metrics

POINTS = [(i,) for i in range(6)]


def _square_cell(env, point):
    (x,) = point
    return {"value": x * x}


def _flaky_cell(env, point):
    (x,) = point
    if x in (2, 5):
        raise ValueError(f"bad point {x}")
    return {"value": x}


def _slow_cell(env, point):
    (x,) = point
    time.sleep(0.05)
    return {"value": x * 10}


def _counter_value(runner, name):
    return sweep_metrics(runner.report).value(name)


FRONTENDS = ("map_grid", "submit")
"""The two ways into the worker pool: a sweep batch and a service job."""


def _run_frontend(frontend, cache_dir, lease_ttl_s, ledger_dir):
    """Evaluate POINTS through one frontend of the worker pool.

    Returns the values in grid order, each job's source (``executed`` or
    ``cached``), and ``{index: attempt}`` of the ledger's ``completed``
    events — the executions, wherever they ran.
    """
    from repro.obs.ledger import RunLedger
    from repro.sweep.pool import ServicePool

    ledger = RunLedger(ledger_dir / "run.jsonl", run_id=frontend)
    if frontend == "map_grid":
        runner = SweepRunner(
            jobs=1, cache=open_cache(cache_dir), lease_ttl_s=lease_ttl_s,
            ledger=ledger,
        )
        values = runner.map_grid("rb", None, _square_cell, POINTS)
    else:
        pool = ServicePool(
            open_cache(cache_dir), workers=1, lease_ttl_s=lease_ttl_s,
            ledger=ledger,
        )
        try:
            results = [
                pool.submit(spec, _square_cell).result(timeout=60)
                for spec in build_jobs("rb", None, POINTS)
            ]
        finally:
            pool.close()
        values = [r.value for r in results]
        sources = [r.source for r in results]
    ledger.close()
    events = read_events(ledger.path)
    if frontend == "map_grid":
        cached = {e["index"] for e in events if e["e"] == "cache_hit"}
        sources = [
            "cached" if i in cached else "executed"
            for i in range(len(POINTS))
        ]
    attempts = {
        e["index"]: e["attempt"] for e in events
        if e["e"] == "sweep_job" and e["status"] == "completed"
    }
    return values, sources, attempts


class TestWorkerDeathRecovery:
    def test_sigkill_mid_sweep_recovers_and_matches_serial(self, tmp_path):
        # Job 2 SIGKILLs its worker on attempt 1 only; the sentinel
        # fires, the job is requeued, attempt 2 survives, and the final
        # results are byte-identical to a serial run.
        serial = [_square_cell(None, p) for p in POINTS]
        chaos = ChaosConfig(sweep_kills=((2, 1),))
        runner = SweepRunner(
            jobs=2,
            cache=open_cache(str(tmp_path / "cache")),
            chaos=chaos,
        )
        results = runner.map_grid("rb", None, _square_cell, POINTS)
        assert results == serial
        assert runner.report.completed == len(POINTS)
        assert runner.report.requeued == 1
        assert runner.report.quarantined == 0
        assert _counter_value(
            runner, "spade_sweep_jobs_requeued"
        ) == 1
        assert _counter_value(
            runner, "spade_sweep_workers_restarted"
        ) >= 1

    def test_multiple_kills_still_converge(self, tmp_path):
        chaos = ChaosConfig(sweep_kills=((0, 1), (3, 1), (5, 1)))
        runner = SweepRunner(
            jobs=3,
            cache=open_cache(str(tmp_path / "cache")),
            chaos=chaos,
        )
        results = runner.map_grid("rb", None, _square_cell, POINTS)
        assert results == [_square_cell(None, p) for p in POINTS]
        assert runner.report.requeued == 3

    def test_kill_recovery_without_cache_or_leases(self, tmp_path):
        # The requeue ladder must work from in-memory attempt tracking
        # alone (no cache configured -> no lease directory).
        chaos = ChaosConfig(sweep_kills=((1, 1),))
        runner = SweepRunner(jobs=2, chaos=chaos)
        results = runner.map_grid("rb", None, _square_cell, POINTS)
        assert results == [_square_cell(None, p) for p in POINTS]
        assert runner.report.requeued == 1

    def test_kill_ledger_records_requeue_and_attempts(self, tmp_path):
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(tmp_path / "ledger" / "run.jsonl", run_id="t")
        chaos = ChaosConfig(sweep_kills=((2, 1),))
        runner = SweepRunner(
            jobs=2,
            cache=open_cache(str(tmp_path / "cache")),
            chaos=chaos,
            ledger=ledger,
        )
        runner.map_grid("rb", None, _square_cell, POINTS)
        ledger.close()
        events = [
            e for e in read_events(ledger.path) if e["e"] == "sweep_job"
        ]
        requeued = [e for e in events if e["status"] == "requeued"]
        assert len(requeued) == 1
        assert requeued[0]["index"] == 2
        assert requeued[0]["attempt"] == 2
        assert "worker died" in requeued[0]["error"]
        completed = [e for e in events if e["status"] == "completed"]
        # Exactly-once: every job completed exactly once, and job 2's
        # completion was its second attempt.
        assert sorted(e["index"] for e in completed) == list(range(6))
        by_index = {e["index"]: e for e in completed}
        assert by_index[2]["attempt"] == 2
        started = [e for e in events if e["status"] == "started"]
        # The killed attempt's started event survived (flushed before
        # the kill) — attempts 1 and 2 for job 2.
        assert len([e for e in started if e["index"] == 2]) == 2


class TestQuarantine:
    def test_poison_job_quarantined_under_keep_going(self, tmp_path):
        # Job 1 kills its worker on every attempt: after max_attempts
        # it must be quarantined, the rest of the grid completes and
        # caches, and manifest + counter record it.
        chaos = ChaosConfig(sweep_kills=((1, 1), (1, 2), (1, 3)))
        cache_dir = str(tmp_path / "cache")
        runner = SweepRunner(
            jobs=2,
            cache=open_cache(cache_dir),
            chaos=chaos,
            max_attempts=3,
            keep_going=True,
        )
        results = runner.map_grid("rb", None, _square_cell, POINTS)
        assert results[1] is None
        for i in (0, 2, 3, 4, 5):
            assert results[i] == {"value": i * i}
        assert runner.report.quarantined == 1
        assert runner.report.completed == 5
        assert runner.report.requeued == 2  # attempts 2 and 3 requeued
        assert _counter_value(
            runner, "spade_sweep_jobs_quarantined"
        ) == 1
        # Machine-readable manifest in the lease directory.
        leases = LeaseManager(
            open_cache(cache_dir).default_lease_dir(), ttl_s=30.0
        )
        specs = build_jobs("rb", None, POINTS)
        manifest = leases.is_quarantined(specs[1].key)
        assert manifest is not None
        assert manifest["attempts"] == 3
        assert "worker died" in manifest["error"]
        assert manifest["driver"] == "rb"

    def test_quarantine_skipped_on_rerun(self, tmp_path):
        chaos = ChaosConfig(sweep_kills=((1, 1), (1, 2), (1, 3)))
        cache_dir = str(tmp_path / "cache")
        first = SweepRunner(
            jobs=2, cache=open_cache(cache_dir), chaos=chaos,
            max_attempts=3, keep_going=True,
        )
        first.map_grid("rb", None, _square_cell, POINTS)
        # Second run: completed jobs come from cache, the poison job is
        # skipped via its manifest without a single new attempt.
        second = SweepRunner(
            jobs=2, cache=open_cache(cache_dir), chaos=chaos,
            max_attempts=3, keep_going=True,
        )
        results = second.map_grid("rb", None, _square_cell, POINTS)
        assert results[1] is None
        assert second.report.cached == 5
        assert second.report.completed == 0
        assert second.report.requeued == 0
        assert second.report.quarantined == 1

    def test_poison_without_keep_going_raises(self, tmp_path):
        chaos = ChaosConfig(sweep_kills=((1, 1), (1, 2), (1, 3)))
        runner = SweepRunner(
            jobs=2, cache=open_cache(str(tmp_path / "cache")),
            chaos=chaos, max_attempts=3,
        )
        with pytest.raises(SweepJobError) as err:
            runner.map_grid("rb", None, _square_cell, POINTS)
        assert "worker died" in str(err.value)
        # The healthy jobs still landed in the cache before the raise.
        assert runner.report.completed == 5

    def test_clean_failures_leave_holes_under_keep_going(self, tmp_path):
        runner = SweepRunner(jobs=1, keep_going=True)
        results = runner.map_grid("rb", None, _flaky_cell, POINTS)
        assert results[2] is None and results[5] is None
        assert results[0] == {"value": 0}
        assert runner.report.failed == 2


class TestFailureDeterminism:
    def test_failure_ordering_identical_serial_vs_parallel(self):
        # Satellite: SweepJobError reports failures sorted by
        # repr(point), so the message is identical under jobs=1 and
        # jobs=4 regardless of completion order.
        messages = []
        for jobs in (1, 4):
            runner = SweepRunner(jobs=jobs)
            with pytest.raises(SweepJobError) as err:
                runner.map_grid("rb", None, _flaky_cell, POINTS)
            messages.append(str(err.value))
            assert err.value.failures == sorted(
                err.value.failures, key=lambda f: repr(f[0])
            )
        assert messages[0] == messages[1]


class TestShardedSweeps:
    def _run_shard(self, shard, cache_dir, ledger_dir, out, barrier):
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(
            ledger_dir / f"shard{shard[0]}.jsonl",
            run_id=f"shard{shard[0]}",
        )
        runner = SweepRunner(
            jobs=1,
            cache=open_cache(cache_dir),
            shard=shard,
            lease_ttl_s=10.0,
            ledger=ledger,
        )
        barrier.wait(timeout=10.0)
        results = runner.map_grid("rb", None, _slow_cell, POINTS)
        ledger.close()
        out[shard] = (results, runner.report)

    def test_two_shards_share_one_grid_exactly_once(self, tmp_path):
        # Two concurrent runners over one shared cache+lease dir: both
        # return the full grid byte-identical to serial, and the merged
        # ledgers show every job executed exactly once.
        serial = [_slow_cell(None, p) for p in POINTS]
        cache_dir = str(tmp_path / "cache")
        ledger_dir = tmp_path / "ledgers"
        ledger_dir.mkdir()
        out = {}
        barrier = threading.Barrier(2)
        threads = [
            threading.Thread(
                target=self._run_shard,
                args=((i, 2), cache_dir, ledger_dir, out, barrier),
            )
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert len(out) == 2, "a shard runner died or hung"
        for shard, (results, report) in out.items():
            assert results == serial, f"shard {shard} diverged"
            assert report.quarantined == 0
        # Every job executed exactly once across the two runners.
        completed = {}
        for path in sorted(ledger_dir.glob("shard*.jsonl")):
            for ev in read_events(path):
                if (
                    ev.get("e") == "sweep_job"
                    and ev.get("status") == "completed"
                ):
                    completed[ev["key"]] = completed.get(ev["key"], 0) + 1
        specs = build_jobs("rb", None, POINTS)
        assert len(completed) == len(specs)
        assert all(count == 1 for count in completed.values()), completed
        total_completed = sum(
            report.completed for _, report in out.values()
        )
        total_cached = sum(report.cached for _, report in out.values())
        assert total_completed == len(POINTS)
        assert total_completed + total_cached == 2 * len(POINTS)

    @pytest.mark.parametrize("frontend", FRONTENDS)
    def test_dead_shard_runner_is_reclaimed(self, tmp_path, frontend):
        # A "runner" claimed a job and died (simulated by planting a
        # backdated foreign lease): the surviving runner must reclaim
        # the stale lease and execute the job itself, at attempt 2.
        cache_dir = str(tmp_path / "cache")
        cache = open_cache(cache_dir)
        specs = build_jobs("rb", None, POINTS)
        dead = LeaseManager(
            cache.default_lease_dir(), owner="dead-runner", ttl_s=1.0
        )
        assert dead.try_claim(specs[3].key) == 1
        old = time.time() - 3600
        os.utime(dead.path_for(specs[3].key), (old, old))
        values, sources, attempts = _run_frontend(
            frontend, cache_dir, 1.0, tmp_path / "ledger"
        )
        assert values == [_square_cell(None, p) for p in POINTS]
        assert sources == ["executed"] * len(POINTS)
        assert attempts == {0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 1}

    @pytest.mark.parametrize("frontend", FRONTENDS)
    def test_foreign_live_holder_is_awaited(self, tmp_path, frontend):
        # A live foreign holder publishes the result while we wait; the
        # waiting runner must pick it up from the cache, not execute.
        cache_dir = str(tmp_path / "cache")
        cache = open_cache(cache_dir)
        specs = build_jobs("rb", None, POINTS)
        holder = LeaseManager(
            cache.default_lease_dir(), owner="peer", ttl_s=30.0
        )
        assert holder.try_claim(specs[0].key) == 1

        def publish_late():
            time.sleep(0.3)
            cache.put(specs[0].key, {"value": 0})
            holder.release(specs[0].key)

        thread = threading.Thread(target=publish_late)
        thread.start()
        values, sources, attempts = _run_frontend(
            frontend, cache_dir, 30.0, tmp_path / "ledger"
        )
        thread.join(timeout=5.0)
        assert values == [_square_cell(None, p) for p in POINTS]
        # Job 0 was served from the peer's publish, not re-executed.
        assert sources == ["cached"] + ["executed"] * (len(POINTS) - 1)
        assert sorted(attempts) == list(range(1, len(POINTS)))

    def test_shard_requires_cache(self):
        from repro.errors import SweepError

        with pytest.raises(SweepError):
            SweepRunner(jobs=1, shard=(0, 2))

    def test_shard_validation(self, tmp_path):
        from repro.errors import SweepError

        cache = open_cache(str(tmp_path / "cache"))
        with pytest.raises(SweepError):
            SweepRunner(jobs=1, cache=cache, shard=(2, 2))
        with pytest.raises(SweepError):
            SweepRunner(jobs=1, cache=cache, shard=(-1, 2))


class TestLeaseRunnerIntegration:
    def test_leases_released_after_clean_sweep(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        runner = SweepRunner(jobs=2, cache=open_cache(cache_dir))
        runner.map_grid("rb", None, _square_cell, POINTS)
        lease_root = open_cache(cache_dir).default_lease_dir()
        leftovers = []
        for dirpath, _dirnames, filenames in os.walk(lease_root):
            leftovers += [f for f in filenames if f.endswith(".lease")]
        assert leftovers == []

    def test_quarantine_manifest_is_json(self, tmp_path):
        chaos = ChaosConfig(sweep_kills=((0, 1), (0, 2), (0, 3)))
        cache_dir = str(tmp_path / "cache")
        runner = SweepRunner(
            jobs=2, cache=open_cache(cache_dir), chaos=chaos,
            max_attempts=3, keep_going=True,
        )
        runner.map_grid("rb", None, _square_cell, POINTS[:2])
        qdir = os.path.join(
            open_cache(cache_dir).default_lease_dir(), "quarantine"
        )
        names = os.listdir(qdir)
        assert len(names) == 1
        manifest = json.loads(open(os.path.join(qdir, names[0])).read())
        assert manifest["index"] == 0
        assert manifest["point"] == repr(POINTS[0])
