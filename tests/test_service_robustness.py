"""Chaos tests: the service survives SIGKILLed workers mid-request.

Reuses the sweep ChaosMonkey's deterministic ``sweep_kills`` schedule —
every service job has grid index 0, so ``((0, 1),)`` kills the first
attempt of whatever executes first, exercising the sentinel-detected
death -> lease attempt bump -> requeue ladder under a live request.
When every attempt dies, the job is quarantined and the HTTP answer is
a 503 carrying the quarantine manifest path.
"""

import pytest

from repro.obs.ledger import RunLedger, read_events
from repro.resilience import ChaosConfig
from repro.service.admission import AdmissionPolicy
from repro.service import ServicePool, ServiceQuarantined
from repro.service.server import (
    PendingReply,
    Reply,
    SimulationService,
)
from repro.service.simulate import request_point, run_cell, run_jobspec
from repro.sweep.cache import ResultCache

POINT_ARGS = {
    "matrix": "ASI", "scale": "tiny", "kernel": "spmm", "k": 8, "pes": 2,
}

GENEROUS = AdmissionPolicy(
    max_queue=64, interactive_reserve=0,
    quota_rate=1_000.0, quota_burst=1_000.0,
)


def _answer(service, body):
    outcome = service.begin(body)
    if isinstance(outcome, Reply):
        return outcome
    assert isinstance(outcome, PendingReply)
    try:
        result = outcome.future.result(timeout=120)
    except BaseException as exc:  # noqa: BLE001 - rendered as Reply
        return service.finish(outcome, None, exc)
    return service.finish(outcome, result)


class TestWorkerDeathMidRequest:
    def test_sigkilled_worker_requeues_and_serves(self, tmp_path):
        ledger = RunLedger(
            tmp_path / "ledger" / "svc.jsonl", run_id="svc-chaos"
        )
        cache = ResultCache(str(tmp_path / "cache"))
        pool = ServicePool(
            cache, workers=1,
            chaos=ChaosConfig(sweep_kills=((0, 1),)),
            max_attempts=3, ledger=ledger,
        )
        try:
            service = SimulationService(
                cache, pool, policy=GENEROUS, ledger=ledger
            )
            reply = _answer(service, dict(POINT_ARGS))
            assert reply.status == 200
            assert reply.payload["source"] == "executed"
            assert reply.payload["attempt"] == 2
            assert pool.requeued == 1
            assert pool.executed == 1
            # The answer survived the crash bit-identical: it is the
            # same summary a direct in-process cell call computes.
            point = request_point(POINT_ARGS)
            assert reply.payload["result"] == run_cell(None, point)
            ledger.flush()
            statuses = [
                (e.get("status"), e.get("attempt"))
                for e in read_events(ledger.path)
                if e["e"] == "sweep_job"
            ]
            assert ("requeued", 2) in statuses
            assert ("completed", 2) in statuses
        finally:
            pool.close()
            ledger.close()

    def test_pool_stays_serviceable_after_a_death(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        pool = ServicePool(
            cache, workers=1,
            chaos=ChaosConfig(sweep_kills=((0, 1),)),
            max_attempts=3,
        )
        try:
            service = SimulationService(cache, pool, policy=GENEROUS)
            first = _answer(service, dict(POINT_ARGS))
            assert first.status == 200
            # The kill schedule hits attempt 1 of *every* job (all
            # service jobs are index 0), so the second key also loses a
            # worker — and also survives via the requeue ladder.
            second = _answer(
                service, dict(POINT_ARGS, kernel="sddmm")
            )
            assert second.status == 200
            assert pool.executed == 2
            assert pool.requeued == 2
        finally:
            pool.close()


class TestQuarantine:
    def _poison_pool(self, tmp_path, ledger=None):
        cache = ResultCache(str(tmp_path / "cache"))
        # Every attempt dies: 3 kills >= max_attempts=3.
        chaos = ChaosConfig(sweep_kills=((0, 1), (0, 2), (0, 3)))
        return cache, ServicePool(
            cache, workers=1, chaos=chaos, max_attempts=3,
            ledger=ledger,
        )

    def test_poison_request_gets_503_with_manifest(self, tmp_path):
        import json
        import os

        cache, pool = self._poison_pool(tmp_path)
        try:
            service = SimulationService(cache, pool, policy=GENEROUS)
            reply = _answer(service, dict(POINT_ARGS))
            assert reply.status == 503
            manifest_path = reply.payload["quarantine_manifest"]
            assert manifest_path and os.path.exists(manifest_path)
            with open(manifest_path) as fh:
                manifest = json.load(fh)
            assert manifest["driver"] == "serve"
            assert manifest["attempts"] == 3
            assert "worker died" in manifest["error"]
            assert pool.quarantined == 1
        finally:
            pool.close()

    def test_quarantined_key_fails_fast_next_time(self, tmp_path):
        cache, pool = self._poison_pool(tmp_path)
        try:
            service = SimulationService(cache, pool, policy=GENEROUS)
            first = _answer(service, dict(POINT_ARGS))
            assert first.status == 503
            # The next request for the same key never reaches a worker:
            # the manifest answers immediately.
            again = _answer(service, dict(POINT_ARGS))
            assert again.status == 503
            assert again.payload["quarantine_manifest"]
            # Fail-fast means no new attempts were burned: still 3.
            assert pool.quarantined == 2  # one ladder + one manifest hit
        finally:
            pool.close()

    def test_quarantine_is_ledger_visible(self, tmp_path):
        ledger = RunLedger(
            tmp_path / "ledger" / "svc.jsonl", run_id="svc-poison"
        )
        cache, pool = self._poison_pool(tmp_path, ledger=ledger)
        try:
            service = SimulationService(
                cache, pool, policy=GENEROUS, ledger=ledger
            )
            reply = _answer(service, dict(POINT_ARGS))
            assert reply.status == 503
            ledger.flush()
            events = read_events(ledger.path)
            q = [
                e for e in events
                if e["e"] == "sweep_job"
                and e["status"] == "quarantined"
            ]
            assert len(q) == 1 and q[0]["driver"] == "serve"
            failed = [
                e for e in events
                if e["e"] == "service" and e["status"] == "failed"
            ]
            assert failed and failed[0]["code"] == 503
        finally:
            pool.close()
            ledger.close()


class TestPoolDirect:
    def test_future_raises_service_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        chaos = ChaosConfig(sweep_kills=((0, 1), (0, 2)))
        pool = ServicePool(
            cache, workers=1, chaos=chaos, max_attempts=2
        )
        try:
            spec = run_jobspec(request_point(POINT_ARGS))
            future = pool.submit(spec, run_cell)
            with pytest.raises(ServiceQuarantined) as info:
                future.result(timeout=120)
            assert info.value.key == spec.key
            assert info.value.manifest_path
        finally:
            pool.close()


class TestQuarantineFoundOnDisk:
    def test_counted_once_in_stats_metrics_and_ledger(self, tmp_path):
        """A key quarantined before the pool started (by an earlier run
        or a peer): ``/v1/stats``, ``GET /metrics`` and the ledger each
        report that one quarantine exactly once."""
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceServer
        from repro.sweep.lease import LeaseManager

        cache = ResultCache(str(tmp_path / "cache"))
        key = run_jobspec(request_point(POINT_ARGS)).key
        LeaseManager(cache.default_lease_dir(), ttl_s=30.0).quarantine(
            key, {"driver": "serve", "index": 0, "attempts": 3,
                  "error": "worker died"},
        )
        ledger = RunLedger(
            tmp_path / "ledger" / "svc.jsonl", run_id="svc-found"
        )
        pool = ServicePool(cache, workers=1, ledger=ledger)
        service = SimulationService(
            cache, pool, policy=GENEROUS, ledger=ledger
        )
        server = ServiceServer(service, port=0)
        server.start_background()
        client = ServiceClient(port=server.port)
        try:
            status, payload, _ = client.request(
                "POST", "/v1/simulate", dict(POINT_ARGS)
            )
            assert status == 503 and payload["quarantine_manifest"]
            assert client.stats()["pool"]["quarantined"] == 1
            assert "spade_service_quarantined 1" in (
                client.metrics_text().splitlines()
            )
            quarantined = [
                e for e in ledger.events()
                if e["e"] == "sweep_job" and e["status"] == "quarantined"
            ]
            assert len(quarantined) == 1
            assert quarantined[0]["key"] == key
            assert quarantined[0]["attempt"] == 3
        finally:
            server.stop()
            pool.close()
            ledger.close()
