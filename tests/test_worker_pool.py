"""The worker pool's own guarantees, independent of its frontend.

- **Outcome order**: a job's ledger shard is merged before its future
  resolves, so whoever the future wakes (an HTTP reply, an audit) finds
  the ``completed`` event in the ledger.  The check runs inside
  ``set_result`` itself, through a done-callback, so it does not depend
  on timing.
- **Claim heartbeat**: a job requeued after its worker died waits in
  the heap holding its lease; no worker heartbeats it, so the
  dispatcher must, or a peer would reclaim the key while it waits.

Cells are module-level (workers import them by reference) and avoid
the simulator so the suite stays tier-1 fast.
"""

import os
import signal
import threading
import time

from repro.obs.ledger import RunLedger, read_events
from repro.sweep import build_jobs, open_cache
from repro.sweep.lease import LeaseManager
from repro.sweep.pool import ServicePool


def _slow_square(env, point):
    (x,) = point
    time.sleep(0.3)
    return {"value": x * x}


def _hold_once(env, point):
    """Sleep ``hold_s`` the first time ``marker`` is seen, after writing
    this process's pid to it; return at once on later attempts."""
    marker, hold_s = point
    if os.path.exists(marker):
        return {"marker": marker}
    with open(marker, "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(hold_s)
    return {"marker": marker}


def _wait_for(path, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
            if text:
                return text
        time.sleep(0.02)
    raise AssertionError(f"{path} never appeared")


class TestOutcomeOrder:
    def test_completed_event_is_in_the_ledger_when_the_future_resolves(
        self, tmp_path
    ):
        ledger = RunLedger(tmp_path / "ledger" / "run.jsonl", run_id="t")
        pool = ServicePool(
            open_cache(str(tmp_path / "cache")), workers=1, ledger=ledger
        )
        spec = build_jobs("order", None, [(7,)])[0]
        seen = {}

        def audit(future):
            seen["thread"] = threading.current_thread()
            ledger.flush()
            seen["completed"] = [
                e for e in read_events(ledger.path)
                if e["e"] == "sweep_job" and e["status"] == "completed"
                and e["key"] == spec.key
            ] if ledger.path.exists() else []

        try:
            future = pool.submit(spec, _slow_square)
            future.add_done_callback(audit)
            assert future.result(timeout=60).value == {"value": 49}
        finally:
            pool.close()
            ledger.close()
        # The callback ran inside set_result on the dispatcher thread,
        # not here after the fact.
        assert seen["thread"] is not threading.current_thread()
        assert len(seen["completed"]) == 1


class TestClaimHeartbeat:
    def test_requeued_claim_stays_fresh_while_it_waits(self, tmp_path):
        ttl_s = 1.0
        cache = open_cache(str(tmp_path / "cache"))
        pool = ServicePool(cache, workers=1, lease_ttl_s=ttl_s)
        waiting = build_jobs(
            "hb", None, [(str(tmp_path / "batch.pid"), 30.0)]
        )[0]
        runner = build_jobs(
            "hb", None, [(str(tmp_path / "interactive.pid"), 2.5)]
        )[0]
        peer = LeaseManager(
            cache.default_lease_dir(), owner="peer", ttl_s=ttl_s
        )
        try:
            batch = pool.submit(waiting, _hold_once, priority="batch")
            pid = int(_wait_for(waiting.point[0]))
            # The sole worker is busy, so the interactive job queues;
            # then the batch job's worker dies and the batch job is
            # requeued behind it, claimed, for longer than the TTL.
            interactive = pool.submit(runner, _hold_once)
            os.kill(pid, signal.SIGKILL)
            _wait_for(runner.point[0])
            probes = []
            deadline = time.monotonic() + 2.0 * ttl_s
            while time.monotonic() < deadline:
                probes.append(peer.try_claim(waiting.key))
                time.sleep(0.1)
            assert probes and all(p is None for p in probes), probes
            assert interactive.result(timeout=60).attempt == 1
            result = batch.result(timeout=60)
            assert result.source == "executed"
            assert result.attempt == 2
            assert pool.requeued == 1
        finally:
            pool.close()


_forking_threads = None
"""While a test records: the name of each thread that forked."""


def _record_fork():
    if _forking_threads is not None:
        _forking_threads.append(threading.current_thread().name)


os.register_at_fork(before=_record_fork)


class TestWorkerStart:
    def test_initial_workers_fork_in_the_constructing_thread(self, tmp_path):
        """The workers are forked before the dispatcher thread starts,
        so no child inherits a lock that thread held."""
        global _forking_threads
        _forking_threads = []
        try:
            pool = ServicePool(open_cache(str(tmp_path / "cache")), workers=2)
            pool.close()
            forks = list(_forking_threads)
        finally:
            _forking_threads = None
        assert forks == [threading.current_thread().name] * 2
