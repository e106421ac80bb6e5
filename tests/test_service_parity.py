"""Differential tests: a served answer is byte-identical to the CLI.

The service's whole correctness claim is that putting HTTP, memoization,
admission, and coalescing in front of the simulator changes *where* an
answer comes from but never *what* it is.  These tests pin that claim on
all three answer paths — cold (executed by the pool), warm (memoized
from the result cache), and coalesced (ridden on another request's
execution) — against ``repro run``'s stdout, plus the end-to-end
concurrency criterion: 32 concurrent HTTP requests over 8 distinct keys
cause exactly 8 simulator executions (audited from the run ledger's
``sweep_job`` events), and a warm rerun causes zero.
"""

import json
import threading

import pytest

from repro.cli import main
from repro.obs.ledger import RunLedger, read_events
from repro.service.admission import AdmissionPolicy
from repro.service.client import ServiceClient
from repro.service import ServicePool
from repro.service.server import (
    PendingReply,
    Reply,
    ServiceServer,
    SimulationService,
)
from repro.service.simulate import (
    MAX_REQUEST_K,
    MAX_REQUEST_PES,
    format_run_summary,
    request_point,
    run_cell,
    run_jobspec,
    to_plain,
)
from repro.sweep.cache import ResultCache

POINT_ARGS = {
    "matrix": "ASI", "scale": "tiny", "kernel": "spmm", "k": 8, "pes": 2,
}

GENEROUS = AdmissionPolicy(
    max_queue=256, interactive_reserve=0,
    quota_rate=10_000.0, quota_burst=10_000.0,
)


def _cli_run_output(capsys, cache_dir, **over):
    args = {**POINT_ARGS, **over}
    assert main([
        "run", "--matrix", args["matrix"], "--scale", args["scale"],
        "--kernel", args["kernel"], "--k", str(args["k"]),
        "--pes", str(args["pes"]), "--cache-dir", str(cache_dir),
    ]) == 0
    return capsys.readouterr().out


def _settle(service, pending):
    """Await one PendingReply synchronously (tests have no event loop)."""
    try:
        result = pending.future.result(timeout=120)
    except BaseException as exc:  # noqa: BLE001 - rendered as Reply
        return service.finish(pending, None, exc)
    return service.finish(pending, result)


def _answer(service, body):
    outcome = service.begin(body)
    if isinstance(outcome, Reply):
        return outcome
    return _settle(service, outcome)


@pytest.fixture()
def stack(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    pool = ServicePool(cache, workers=2)
    service = SimulationService(cache, pool, policy=GENEROUS)
    yield cache, pool, service
    pool.close()


class TestServedBytesEqualCli:
    def test_cold_path_matches_repro_run(self, stack, tmp_path, capsys):
        cache, pool, service = stack
        expected = _cli_run_output(capsys, tmp_path / "cli-cache")
        reply = _answer(service, dict(POINT_ARGS))
        assert reply.status == 200
        assert reply.payload["source"] == "executed"
        rendered = format_run_summary(
            reply.payload["result"], POINT_ARGS["kernel"], POINT_ARGS["k"]
        ) + "\n"
        assert rendered == expected
        assert pool.executed == 1

    def test_warm_memo_matches_and_skips_execution(
        self, stack, tmp_path, capsys
    ):
        cache, pool, service = stack
        expected = _cli_run_output(capsys, tmp_path / "cli-cache")
        first = _answer(service, dict(POINT_ARGS))
        assert first.status == 200
        warm = _answer(service, dict(POINT_ARGS))
        assert warm.status == 200
        assert warm.payload["source"] == "memo"
        rendered = format_run_summary(
            warm.payload["result"], POINT_ARGS["kernel"], POINT_ARGS["k"]
        ) + "\n"
        assert rendered == expected
        assert pool.executed == 1  # the memo hit executed nothing
        assert warm.payload["result"] == first.payload["result"]

    def test_json_wire_format_is_lossless(self, stack):
        _, _, service = stack
        reply = _answer(service, dict(POINT_ARGS))
        wire = json.loads(json.dumps(reply.payload, sort_keys=True))
        assert wire["result"] == reply.payload["result"]
        rendered = format_run_summary(
            wire["result"], POINT_ARGS["kernel"], POINT_ARGS["k"]
        )
        direct = format_run_summary(
            reply.payload["result"], POINT_ARGS["kernel"], POINT_ARGS["k"]
        )
        assert rendered == direct

    def test_cli_cache_entry_is_a_service_memo_hit(
        self, tmp_path, capsys
    ):
        # One key space: repro run --cache-dir writes the entry the
        # service memoizes from, with zero service-side executions.
        cache_dir = tmp_path / "shared-cache"
        expected = _cli_run_output(capsys, cache_dir)
        cache = ResultCache(str(cache_dir))
        pool = ServicePool(cache, workers=1)
        try:
            service = SimulationService(cache, pool, policy=GENEROUS)
            reply = _answer(service, dict(POINT_ARGS))
            assert reply.status == 200
            assert reply.payload["source"] == "memo"
            rendered = format_run_summary(
                reply.payload["result"], POINT_ARGS["kernel"],
                POINT_ARGS["k"],
            ) + "\n"
            assert rendered == expected
            assert pool.executed == 0
        finally:
            pool.close()


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_execution(
        self, tmp_path
    ):
        # One worker; a first key occupies it, so requests for a second
        # key deterministically pile up behind it and coalesce.
        cache = ResultCache(str(tmp_path / "cache"))
        pool = ServicePool(cache, workers=1)
        try:
            service = SimulationService(cache, pool, policy=GENEROUS)
            blocker = dict(POINT_ARGS)
            target = dict(POINT_ARGS, kernel="sddmm")
            p_block = service.begin(blocker)
            assert isinstance(p_block, PendingReply)
            leader = service.begin(dict(target))
            waiters = [service.begin(dict(target)) for _ in range(3)]
            assert isinstance(leader, PendingReply) and leader.is_leader
            for w in waiters:
                assert isinstance(w, PendingReply) and not w.is_leader
            replies = [
                _settle(service, p)
                for p in [p_block, leader] + waiters
            ]
            assert all(r.status == 200 for r in replies)
            assert replies[1].payload["source"] == "executed"
            for r in replies[2:]:
                assert r.payload["source"] == "coalesced"
                assert r.payload["result"] == replies[1].payload["result"]
            assert pool.executed == 2  # blocker + target, once each
            assert service.coalescer.stats()["coalesced"] == 3
        finally:
            pool.close()


    def test_result_published_between_probe_and_join_runs_once(
        self, stack, monkeypatch
    ):
        # The key's previous leader publishes and leaves the in-flight
        # table after this request's memo probe missed but before it
        # joins: the new leader must find the result, not execute.
        cache, pool, service = stack
        point = request_point(POINT_ARGS)
        key = run_jobspec(point).key
        value = run_cell(None, point)
        probe = cache.get
        raced = []

        def get(k):
            hit = probe(k)
            if k == key and not raced:
                raced.append(k)
                cache.put(key, value)
            return hit

        monkeypatch.setattr(cache, "get", get)
        reply = _answer(service, dict(POINT_ARGS))
        assert reply.status == 200
        assert reply.payload["source"] == "memo"
        assert reply.payload["result"] == to_plain(value)
        assert pool.stats()["executed"] == 0
        assert service.coalescer.in_flight == 0


class TestConcurrentHttpEndToEnd:
    N_KEYS = 8
    N_REQUESTS = 32

    def _bodies(self):
        # 8 distinct keys: 4 k-values x 2 kernels, all tiny.
        bodies = []
        for k in (4, 8, 12, 16):
            for kernel in ("spmm", "sddmm"):
                bodies.append(dict(
                    POINT_ARGS, k=k, kernel=kernel,
                ))
        assert len({
            run_jobspec(request_point(b)).key for b in bodies
        }) == self.N_KEYS
        return bodies

    def test_32_requests_8_keys_8_executions(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        ledger = RunLedger(
            tmp_path / "ledger" / "service.jsonl", run_id="svc-e2e"
        )
        pool = ServicePool(
            cache, workers=4, ledger=ledger,
        )
        service = SimulationService(
            cache, pool, policy=GENEROUS, ledger=ledger
        )
        server = ServiceServer(service, port=0)
        server.start_background()
        client = ServiceClient(port=server.port)
        bodies = self._bodies() * (self.N_REQUESTS // self.N_KEYS)
        answers = [None] * len(bodies)

        def _fire(i):
            answers[i] = client.simulate(**bodies[i])

        try:
            threads = [
                threading.Thread(target=_fire, args=(i,))
                for i in range(len(bodies))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            assert all(a is not None for a in answers), \
                "some requests never completed"
            # Identical keys -> identical results, regardless of source.
            by_key = {}
            for a in answers:
                by_key.setdefault(a["key"], []).append(a)
            assert len(by_key) == self.N_KEYS
            for key, group in by_key.items():
                assert len(group) == 4
                results = [g["result"] for g in group]
                assert all(r == results[0] for r in results)
            # Ledger exactly-once audit: one completed execution per key.
            ledger.flush()
            events = read_events(ledger.path)
            completed = [
                e for e in events
                if e["e"] == "sweep_job" and e["status"] == "completed"
            ]
            assert sorted(e["key"] for e in completed) == sorted(by_key)
            assert pool.executed == self.N_KEYS
            # Warm rerun: 100% memo, zero new executions.
            memo_before = service.memo_hits
            warm = [client.simulate(**b) for b in bodies]
            assert all(a["source"] == "memo" for a in warm)
            assert pool.executed == self.N_KEYS
            assert service.memo_hits == memo_before + len(bodies)
        finally:
            server.stop()
            pool.close()
            ledger.close()


class TestHttpSurface:
    def test_health_stats_metrics_and_rejections(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        pool = ServicePool(cache, workers=1)
        service = SimulationService(cache, pool, policy=GENEROUS)
        server = ServiceServer(service, port=0)
        server.start_background()
        client = ServiceClient(port=server.port)
        try:
            assert client.healthy()
            status, payload, _ = client.request(
                "POST", "/v1/simulate", {"matrix": "nope"}
            )
            assert status == 400
            assert "suite names" in payload["error"]
            status, payload, _ = client.request(
                "POST", "/v1/simulate",
                {"matrix": "tests/data/evil.mtx"},
            )
            assert status == 400  # path injection refused
            status, payload, _ = client.request(
                "POST", "/v1/simulate",
                dict(POINT_ARGS, execution="pipelined"),
            )
            assert status == 400  # a deleted execution mode
            assert "execution must be one of" in payload["error"]
            status, payload, _ = client.request(
                "POST", "/v1/simulate", dict(POINT_ARGS, cache_shrink=0.5),
            )
            assert status == 400  # refused before it takes a worker
            assert "cache_shrink must be a number >= 1" in payload["error"]
            status, payload, _ = client.request("GET", "/nope")
            assert status == 404
            client.simulate(**POINT_ARGS)
            stats = client.stats()
            assert stats["requests"] == 5  # 4 bad + 1 good
            assert stats["served"] == 1
            text = client.metrics_text()
            assert "spade_service_requests" in text
        finally:
            server.stop()
            pool.close()


def test_replay_field_accepts_exactly_the_two_modes():
    """A request may name the oracle or the array backend (or leave the
    default); the deleted ``batched`` mode is a malformed request."""
    from repro.errors import WorkloadError

    keys = {
        replay: run_jobspec(request_point(dict(POINT_ARGS, replay=replay))).key
        for replay in (None, "scalar", "array")
    }
    assert len(set(keys.values())) == 3
    for bad in ("batched", "bogus"):
        with pytest.raises(WorkloadError, match="replay"):
            request_point(dict(POINT_ARGS, replay=bad))


@pytest.mark.parametrize("field,value", [
    ("pes", MAX_REQUEST_PES + 1),
    ("k", MAX_REQUEST_K + 1),
    ("cache_shrink", 0.5),
    ("cache_shrink", 0),
])
def test_out_of_range_sizes_are_malformed(field, value):
    """Sizes a worker cannot or must not build are a 400 at admission,
    not a worker failure.  Only normalised: nothing is run."""
    from repro.errors import WorkloadError

    with pytest.raises(WorkloadError, match=field):
        request_point(dict(POINT_ARGS, **{field: value}))


def test_sizes_at_the_bounds_are_admitted():
    point = request_point(dict(
        POINT_ARGS, pes=MAX_REQUEST_PES, k=MAX_REQUEST_K, cache_shrink=1,
    ))
    assert point[3:6] == (MAX_REQUEST_K, MAX_REQUEST_PES, 1.0)
