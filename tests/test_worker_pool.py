"""The worker pool's own guarantees, independent of its frontend.

- **Outcome order**: a job's ledger shard is merged before its future
  resolves, so whoever the future wakes (an HTTP reply, an audit) finds
  the ``completed`` event in the ledger.  The check runs inside
  ``set_result`` itself, through a done-callback, so it does not depend
  on timing.

Cells are module-level (workers import them by reference) and avoid
the simulator so the suite stays tier-1 fast.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.obs.ledger import RunLedger, read_events
from repro.sparse.generators import banded
from repro.sparse.io import write_matrix_market
from repro.sweep import build_jobs, open_cache
from repro.sweep.pool import ServicePool


def _slow_square(env, point):
    (x,) = point
    time.sleep(0.3)
    return {"value": x * x}


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

    def test_run_jobs_import_nothing_in_forked_workers(self, tmp_path):
        """A worker forked from the pool, at construction or as a
        respawn from the dispatcher thread, finds the whole ``run`` job
        path imported: a job adds no ``repro`` module, so no child
        waits on an import lock a parent thread held at the fork.  The
        parent is a fresh process that imports only the pool and the
        cell, as ``repro serve`` does."""
        mtx = tmp_path / "band.mtx"
        write_matrix_market(banded(64, 3, seed=1), str(mtx))
        out = subprocess.run(
            [sys.executable, "-c", _FORKED_RUN_JOBS, str(tmp_path), str(mtx)],
            env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True,
            text=True, timeout=300, check=True,
        )
        added, restarted = json.loads(out.stdout.splitlines()[-1])
        assert added == [[], [], []]
        assert restarted == 2


_SRC = str(Path(__file__).resolve().parents[1] / "src")

_FORKED_RUN_JOBS = """
import json, os, sys
from repro.jobmodel import build_jobs
from repro.service.simulate import run_cell
from repro.sweep.pool import ServicePool

def cell(env, point):
    marker, point = point[0], point[1:]
    if not os.path.exists(marker):
        # This worker dies; the pool respawns one from its dispatcher
        # thread and runs the job there.
        open(marker, "w").close()
        os._exit(1)
    before = set(sys.modules)
    run_cell(env, point)
    return sorted(m for m in set(sys.modules) - before if m.startswith("repro"))

tmp, mtx = sys.argv[1:]
first = os.path.join(tmp, "first")
open(first, "w").close()  # the first job runs on the initial worker
pool = ServicePool(None, workers=1)
try:
    added = []
    for i, (marker, matrix) in enumerate(
        [(first, "KRO"), (os.path.join(tmp, "kro"), "KRO"),
         (os.path.join(tmp, "mtx"), mtx)]
    ):
        point = (marker, matrix, "tiny", "spmm", 16, 2, 32.0, 0, None, None)
        spec = build_jobs("fork-imports", None, [point])[0]
        added.append(pool.submit(spec, cell).result(timeout=240).value)
    print(json.dumps([added, pool.restarted]))
finally:
    pool.close()
"""
