"""Service workload: HTTP ``POST /v1/simulate`` against ``repro serve``.

A closed loop from this process over two connections: each connection
sends its next request only after the previous reply.  Requests follow
a seeded Zipf sequence over 40 ``run`` keys (the ten suite matrices x
{spmm, sddmm} x K in {16, 32}, at the ``tiny`` scale), the key space
``repro run`` and ``repro sweep`` cells live in.  Each *episode* salts
the keys with a fresh operand seed, so the result cache is cold when
it starts: the first request for a key executes on the pool, concurrent
requests for it coalesce onto that execution, later ones are memo hits.
"""

from __future__ import annotations

import http.client
import itertools
import json
import queue
import re
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import spans
from common import (HERE, ROOT, Outcome, p95, peak_rss_mb,
                    timed_setup)

SCALE = "tiny"
KS = (16, 32)
KERNELS = ("spmm", "sddmm")
CONNECTIONS = 2
WORKERS = 2
REQUESTS_PER_EPISODE = 200
ZIPF_S = 1.1
EPISODE_SALT = 7919
"""Operand-seed stride between episodes (keeps their keys disjoint)."""


def episode_bodies(seed: int, episode: int) -> list:
    """The episode's request bodies, in sending order."""
    from repro.sparse.suite import suite_names

    keys = [
        {"matrix": m, "scale": SCALE, "kernel": kernel, "k": k,
         "seed": seed + EPISODE_SALT * episode}
        for m in suite_names() for kernel in KERNELS for k in KS
    ]
    rng = np.random.default_rng([seed, episode])
    rank = rng.permutation(len(keys))
    weights = 1.0 / np.arange(1, len(keys) + 1) ** ZIPF_S
    draws = rng.choice(
        len(keys), size=REQUESTS_PER_EPISODE, p=weights / weights.sum()
    )
    return [keys[rank[d]] for d in draws]


def warmup_body(seed: int) -> dict:
    """A key no episode uses (K=4)."""
    return {"matrix": "ASI", "scale": SCALE, "kernel": "spmm", "k": 4,
            "seed": seed}


class Server:
    """One ``repro serve`` process on a free local port."""

    def __init__(self, cache_dir, span_dir=None, ledger_dir=None) -> None:
        from repro.service.client import ServiceClient

        args = [
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--workers", str(WORKERS), "--cache-dir", str(cache_dir),
            # One tenant sends everything; admission quotas are not what
            # this workload measures.
            "--quota-rate", "1e9", "--quota-burst", "1e9",
        ]
        if ledger_dir is not None:
            args += ["--ledger", str(ledger_dir)]
        if span_dir is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(span_dir), *args]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        self._lines: "queue.Queue" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        port = self._await_port(timeout_s=60.0)
        self.client = ServiceClient(port=port, timeout_s=120.0)

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=0.5)
            except queue.Empty:
                continue
            if line is None:
                break
            match = re.search(r"serving\s*: http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError("repro serve did not announce its port")

    def stop(self) -> None:
        client = getattr(self, "client", None)
        if client is not None and self.proc.poll() is None:
            try:
                client.shutdown()
            except (OSError, http.client.HTTPException):
                pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)


def _request(client, body) -> tuple:
    t0 = time.perf_counter()
    try:
        status, payload, _ = client.request("POST", "/v1/simulate", body)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        status, payload = 0, {"error": repr(exc)}
    return time.perf_counter() - t0, status, payload


def run_episode(client, bodies) -> list:
    """Send ``bodies`` over CONNECTIONS closed-loop connections; returns
    ``(latency, status, payload)`` per body."""
    samples = [None] * len(bodies)
    cursor = itertools.count()
    lock = threading.Lock()

    def connection() -> None:
        while True:
            with lock:
                i = next(cursor)
            if i >= len(bodies):
                return
            samples[i] = _request(client, bodies[i])

    threads = [threading.Thread(target=connection)
               for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples


def _measure(speed, server, seed, seconds, out, answers) -> dict:
    """Episodes for ``seconds``; checks every reply.  Times are scaled to
    nominal host speed."""
    latencies, sources, statuses, walls, raw = [], [], [], [], []
    distinct = 0
    deadline = time.perf_counter() + seconds
    for episode in itertools.count():
        if walls and time.perf_counter() >= deadline:
            break
        bodies = episode_bodies(seed, episode)
        wall, scaled, samples = speed.timed(
            lambda: run_episode(server.client, bodies)
        )
        walls.append(scaled)
        raw.append(wall)
        distinct += len({json.dumps(b, sort_keys=True) for b in bodies})
        bad = 0
        for latency, status, payload in samples:
            latencies.append(latency * scaled / wall)
            statuses.append(status)
            sources.append(payload.get("source") if status == 200 else None)
            if status != 200:
                bad += 1
                continue
            blob = json.dumps(payload["result"], sort_keys=True)
            bad += answers.setdefault(payload["key"], blob) != blob
        out.check(bad, len(samples),
                  "service replies not 200 or disagreeing for one key")
    executed = server.client.stats()["pool"]["executed"] - 1  # warm-up
    if executed != distinct:
        out.problems.append(
            f"service executed {executed} jobs for {distinct} distinct "
            "keys (exactly-once)"
        )
    return {"latencies": latencies, "sources": sources,
            "statuses": statuses, "walls": walls, "raw_walls": raw,
            "executed": executed}


def _boot(work, seed, tag, **kwargs) -> Server:
    server = Server(work / f"cache-{tag}", **kwargs)
    latency, status, payload = _request(server.client, warmup_body(seed))
    if status != 200:
        server.stop()
        raise RuntimeError(f"service warm-up request failed: {payload}")
    return server


def run(workload: str, seed: int, seconds: float, trace: bool, work,
        speed) -> Outcome:
    out = Outcome()
    answers: dict = {}
    boots = itertools.count()
    setup_s, server = timed_setup(
        speed, lambda: _boot(work, seed, next(boots)), discard=Server.stop
    )
    budget = seconds / 2 if trace else seconds
    try:
        m = _measure(speed, server, seed, budget, out, answers)
    finally:
        server.stop()
    lat = m["latencies"]
    out.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(include_self=False),
        "throughput_per_s": statistics.median(
            REQUESTS_PER_EPISODE / wall for wall in m["walls"]
        ),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p95_ms": p95(lat) * 1e3,
    }
    out.report.update(
        requests=len(lat), episodes=len(m["walls"]),
        beyond_p95=sum(x * 1e3 > out.end_to_end["latency_p95_ms"]
                       for x in lat),
    )
    if trace:
        _traced(speed, seed, budget, m, out, work, answers)
    _check_against_sweep(seed, out, answers, work)
    return out


def _check_against_sweep(seed, out, answers, work) -> None:
    """A served answer must equal the sweep cell for the same key, and a
    warm sweep over the same cells must return the cold rows."""
    from repro.service.simulate import request_point, run_cell, to_plain
    from repro.sweep import ResultCache, SweepRunner, build_jobs

    bodies = episode_bodies(seed, 0)
    picks = [next(b for b in bodies if b["kernel"] == k) for k in KERNELS]
    points = [request_point(b) for b in picks]
    cache = ResultCache(str(work / "sweep-check"))

    def sweep():
        runner = SweepRunner(jobs=1, cache=cache)
        return runner.map_grid("run", None, run_cell, points)

    cold = sweep()
    warm = sweep()
    out.check(sum(w != c for w, c in zip(warm, cold)), len(points),
              "warm sweep rows differ from the cold rows")
    keys = [spec.key for spec in build_jobs("run", None, points)]
    out.check(
        sum(answers.get(key) != json.dumps(to_plain(row), sort_keys=True)
            for key, row in zip(keys, cold)),
        len(points), "service answers differ from the sweep cell",
    )


def _traced(speed, seed, seconds, untraced, out, work, answers) -> None:
    span_dir = work / "spans"
    span_dir.mkdir()
    ledger_dir = work / "ledger"
    server = _boot(work, seed, "traced", span_dir=span_dir,
                   ledger_dir=ledger_dir)
    try:
        m = _measure(speed, server, seed, seconds, out, answers)
    finally:
        server.stop()
    batches = spans.load_dumps(span_dir)
    facts = [f for _, batch in batches for f in batch]
    layers = spans.layer_metrics(batches)
    summary = spans.ledger_summary([ledger_dir])
    n = len(m["latencies"])
    sources, lat = m["sources"], m["latencies"]
    paired = list(zip(m["walls"], untraced["walls"]))
    out.per_layer.update(layers)
    out.per_layer.update(spans.sim_metrics(facts))
    out.per_layer.update(spans.replay_split(
        summary, layers["memory.replay_s"], layers["kernel_calls"]
    ))
    out.per_layer.update({
        "trace.overhead_frac": statistics.median(
            t / u for t, u in paired
        ) - 1.0,
        "service.memo_frac": sources.count("memo") / n,
        "service.coalesced_frac": sources.count("coalesced") / n,
        "service.executed": m["executed"] / len(m["walls"]),
        "service.rejected": sum(s in (429, 503) for s in m["statuses"]),
    })

    def p50_ms(source):
        xs = [x for x, s in zip(lat, sources) if s == source]
        return statistics.median(xs) * 1e3 if xs else 0.0

    # The service's pool is the sweep's worker machinery: its jobs are
    # ledger ``sweep_job`` events and its memo probes ``ResultCache.get``.
    exec_s = summary["cell_exec_s"]
    cell_exec_s = statistics.median(exec_s) if exec_s else 0.0
    gets = spans.self_times(batches).get("sweep.cache_get")
    episodes = len(m["walls"])
    out.per_layer.update({
        "service.memo_p50_ms": p50_ms("memo"),
        "service.executed_p50_ms": p50_ms("executed"),
        "service.cell_exec_s": cell_exec_s,
        # Less the boot's warm-up job, which the ledger also recorded.
        "sweep.cells_executed": (len(exec_s) - 1) / episodes,
        "sweep.cells_cached": sources.count("memo") / episodes,
        "sweep.cell_exec_s": cell_exec_s,
        "sweep.pool_idle_frac": (
            1.0 - sum(exec_s) / (sum(m["raw_walls"]) * WORKERS)
        ),
        "sweep.cache_get_s": gets["self_s"] / gets["calls"] if gets else 0.0,
    })
    out.report.update({
        "traced_episode_s": m["walls"],
        "untraced_episode_s": untraced["walls"],
        "spans": [batch for batch, _ in batches],
    })
