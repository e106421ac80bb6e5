"""Crash-safety tests for the supervised sweep pool.

Exercises the pool's crash ladder: worker SIGKILL -> sentinel
detection -> attempt bump -> requeue -> re-execution (parity with
serial), and for poison jobs -> pool-local quarantine + ledger event +
counter under keep_going.  Then the concurrent-writer argument: two
processes sharing one cache directory with no coordination both get
the serial answers and leave one valid entry per key.

Cells are module-level (workers import them by reference) and avoid
the simulator entirely so the suite stays tier-1 fast.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.errors import SweepJobError
from repro.obs.ledger import RunLedger, read_events
from repro.resilience import ChaosConfig
from repro.sweep import SweepRunner, build_jobs, open_cache
from repro.sweep.pool import ServicePool, ServiceQuarantined
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
        # The requeue ladder works from the pool's in-memory attempt
        # count alone: no cache configured, nothing on disk.
        chaos = ChaosConfig(sweep_kills=((1, 1),))
        runner = SweepRunner(jobs=2, chaos=chaos)
        results = runner.map_grid("rb", None, _square_cell, POINTS)
        assert results == [_square_cell(None, p) for p in POINTS]
        assert runner.report.requeued == 1

    def test_kill_ledger_records_requeue_and_attempts(self, tmp_path):
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
        # caches, and the ledger event + counter record it.
        chaos = ChaosConfig(sweep_kills=((1, 1), (1, 2), (1, 3)))
        ledger = RunLedger(tmp_path / "ledger" / "run.jsonl", run_id="q")
        runner = SweepRunner(
            jobs=2,
            cache=open_cache(str(tmp_path / "cache")),
            chaos=chaos,
            max_attempts=3,
            keep_going=True,
            ledger=ledger,
        )
        results = runner.map_grid("rb", None, _square_cell, POINTS)
        ledger.close()
        assert results[1] is None
        for i in (0, 2, 3, 4, 5):
            assert results[i] == {"value": i * i}
        assert runner.report.quarantined == 1
        assert runner.report.completed == 5
        assert runner.report.requeued == 2  # attempts 2 and 3 requeued
        assert _counter_value(
            runner, "spade_sweep_jobs_quarantined"
        ) == 1
        quarantined = [
            e for e in read_events(ledger.path)
            if e["e"] == "sweep_job" and e["status"] == "quarantined"
        ]
        assert len(quarantined) == 1
        event = quarantined[0]
        assert event["key"] == build_jobs("rb", None, POINTS)[1].key
        assert event["attempt"] == 3
        assert "worker died" in event["error"]
        assert event["driver"] == "rb"

    def test_quarantine_skipped_on_rerun(self, tmp_path):
        # Rerunning the grid on the same pool: the poison key fails
        # fast from the pool's quarantine map without a single new
        # attempt, and the healthy keys run again.
        chaos = ChaosConfig(sweep_kills=((1, 1), (1, 2), (1, 3)))
        specs = build_jobs("rb", None, POINTS)
        pool = ServicePool(None, workers=2, chaos=chaos, max_attempts=3)
        try:
            first = pool.run_batch(specs, _square_cell, None, None)
            with pytest.raises(ServiceQuarantined) as info:
                first[1].result()
            assert info.value.attempts == 3
            before = pool.stats()
            again = pool.run_batch(specs, _square_cell, None, None)
            with pytest.raises(ServiceQuarantined) as info:
                again[1].result()
            assert info.value.attempts == 3
            assert "worker died" in str(info.value)
            after = pool.stats()
        finally:
            pool.close()
        assert [again[i].result().value for i in (0, 2, 3, 4, 5)] == [
            {"value": i * i} for i in (0, 2, 3, 4, 5)
        ]
        assert after["executed"] == before["executed"] + 5
        assert after["requeued"] == before["requeued"]
        assert after["restarted"] == before["restarted"]
        assert after["quarantined"] == before["quarantined"] + 1

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


def _fork_context():
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


def _write_one_cache(frontend, cache_dir, barrier, conn):
    """One uncoordinated writer of ``cache_dir``: wait for the other,
    evaluate POINTS through ``frontend``, send the values back."""
    barrier.wait(timeout=60.0)
    cache = open_cache(cache_dir)
    if frontend == "map_grid":
        runner = SweepRunner(jobs=2, cache=cache)
        values = runner.map_grid("rb", None, _slow_cell, POINTS)
    else:
        # No cache probe: the pool executes and publishes every key.
        pool = ServicePool(cache, workers=2)
        try:
            futures = [
                pool.submit(spec, _slow_cell)
                for spec in build_jobs("rb", None, POINTS)
            ]
            values = [f.result(timeout=60).value for f in futures]
        finally:
            pool.close()
    conn.send(values)
    conn.close()


class TestConcurrentWriters:
    def test_sweep_and_service_pool_share_one_cache(self, tmp_path):
        # Two processes write one cache directory with no coordination
        # at all: a race on a key costs duplicate work, never a wrong,
        # torn or missing entry.
        serial = [_slow_cell(None, p) for p in POINTS]
        cache_dir = str(tmp_path / "cache")
        ctx = _fork_context()
        barrier = ctx.Barrier(2)
        procs, conns = [], []
        for frontend in ("map_grid", "submit"):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_write_one_cache,
                args=(frontend, cache_dir, barrier, child_conn),
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)
        try:
            values = []
            for conn in conns:
                assert conn.poll(120.0), "a writer died or hung"
                values.append(conn.recv())
        finally:
            for proc in procs:
                proc.join(timeout=30.0)
                if proc.is_alive():
                    proc.kill()
        assert [proc.exitcode for proc in procs] == [0, 0]
        assert values == [serial, serial]
        cache = open_cache(cache_dir)
        specs = build_jobs("rb", None, POINTS)
        assert cache.keys() == sorted(spec.key for spec in specs)
        for spec, expected in zip(specs, serial):
            assert cache.get(spec.key) == (True, expected)
        debris = [
            name
            for _, _, names in os.walk(cache_dir)
            for name in names if name.endswith(".tmp")
        ]
        assert debris == []
        assert not os.path.exists(os.path.join(cache_dir, ".leases"))
        assert all(len(name) == 2 for name in os.listdir(cache_dir))

    def test_cache_from_an_older_release_still_hits(self, tmp_path):
        # Older releases kept claim files and quarantine manifests in a
        # ``.leases`` tree inside the cache.  Nothing reads it now: the
        # cached keys still hit, ``keys()`` skips the tree, and a key
        # it names as quarantined simply runs.
        cache_dir = tmp_path / "cache"
        specs = build_jobs("rb", None, POINTS)
        first = SweepRunner(jobs=1, cache=open_cache(str(cache_dir)))
        first.map_grid("rb", None, _square_cell, POINTS[:3])
        old = cache_dir / ".leases"
        claim = old / specs[0].key[:2] / f"{specs[0].key}.lease"
        claim.parent.mkdir(parents=True)
        claim.write_text(json.dumps({"key": specs[0].key, "attempt": 1}))
        manifest = old / "quarantine" / f"{specs[4].key}.json"
        manifest.parent.mkdir()
        manifest.write_text(json.dumps({"attempts": 3, "error": "old"}))
        cache = open_cache(str(cache_dir))
        assert cache.keys() == sorted(spec.key for spec in specs[:3])
        second = SweepRunner(jobs=1, cache=cache)
        results = second.map_grid("rb", None, _square_cell, POINTS)
        assert results == [_square_cell(None, p) for p in POINTS]
        assert second.report.cached == 3
        assert second.report.completed == 3
        assert second.report.quarantined == 0
