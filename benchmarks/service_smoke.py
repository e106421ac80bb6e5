"""End-to-end smoke for the simulation service (CI ``service-smoke`` lane).

Boots the real ``repro serve`` CLI as a subprocess, fires 32 concurrent
HTTP requests spanning 8 distinct job keys at it, and asserts the
service's whole contract from the outside:

* every request answers 200 with a result;
* requests for the same key get identical results, whether they were
  executed, coalesced, or memoized;
* the run ledger shows **exactly one** simulator execution per key
  (``sweep_job completed`` events — the coalescing/at-most-once audit);
* a warm rerun of all 32 bodies is answered 100% from the memo cache
  with zero new executions;
* the warm rerun's 32 sequential requests and the stats call after it
  travel over one kept connection (the server's ``connections`` count
  rises by exactly one).

Usage::

    PYTHONPATH=src python benchmarks/service_smoke.py \
        --artifacts service-artifacts --out service-artifacts/smoke.json
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.obs.ledger import read_events
from repro.service.client import ServiceClient

POINT = {"matrix": "ASI", "scale": "tiny", "pes": 2}
REPEATS = 4


def _bodies() -> list[dict]:
    bodies = []
    for k in (4, 8, 12, 16):
        for kernel in ("spmm", "sddmm"):
            bodies.append(dict(POINT, k=k, kernel=kernel))
    return bodies


def _start_server(artifacts: Path, workers: int) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(workers),
            "--cache-dir", str(artifacts / "cache"),
            "--ledger", str(artifacts / "ledger"),
            # The smoke fires 32 requests in one burst from one tenant;
            # the default per-tenant quota (4/s, burst 16) would 429 the
            # back half, which is the admission suite's job to test.
            "--max-queue", "64", "--quota-rate", "1000",
            "--quota-burst", "1000",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 60.0
    port = None
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        sys.stdout.write(f"[serve] {line}")
        match = re.search(r"serving\s*: http://[^:]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.kill()
        raise SystemExit("server never announced its port")
    # Drain the remaining banner lines in the background so the server
    # process cannot block on a full stdout pipe.
    threading.Thread(
        target=lambda: [sys.stdout.write(f"[serve] {ln}")
                        for ln in proc.stdout],
        daemon=True,
    ).start()
    return proc, port


def _fire_concurrently(client: ServiceClient, bodies: list[dict]) -> list[dict]:
    answers: list[dict | None] = [None] * len(bodies)
    errors: list[str] = []

    def _one(i: int) -> None:
        try:
            answers[i] = client.simulate(**bodies[i])
        except Exception as exc:  # noqa: BLE001 - collected and reported
            errors.append(f"request {i}: {exc!r}")

    threads = [
        threading.Thread(target=_one, args=(i,)) for i in range(len(bodies))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    if errors:
        raise SystemExit("requests failed:\n" + "\n".join(errors))
    missing = [i for i, a in enumerate(answers) if a is None]
    if missing:
        raise SystemExit(f"requests never completed: {missing}")
    return answers  # type: ignore[return-value]


def _audit_ledger(ledger_dir: Path) -> dict[str, int]:
    completed: dict[str, int] = {}
    for path in sorted(ledger_dir.glob("*.jsonl")):
        for event in read_events(path):
            if event.get("e") == "sweep_job" and event["status"] == "completed":
                key = event["key"]
                completed[key] = completed.get(key, 0) + 1
    return completed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifacts", default="service-artifacts")
    parser.add_argument("--out", default=None)
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)

    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)

    distinct = _bodies()
    bodies = distinct * REPEATS
    proc, port = _start_server(artifacts, args.workers)
    client = ServiceClient(port=port)
    try:
        t0 = time.monotonic()
        answers = _fire_concurrently(client, bodies)
        cold_s = time.monotonic() - t0

        by_key: dict[str, list[dict]] = {}
        for answer in answers:
            by_key.setdefault(answer["key"], []).append(answer)
        assert len(by_key) == len(distinct), (
            f"expected {len(distinct)} distinct keys, saw {len(by_key)}"
        )
        for key, group in by_key.items():
            assert len(group) == REPEATS, (key, len(group))
            baseline = group[0]["result"]
            for answer in group[1:]:
                assert answer["result"] == baseline, (
                    f"divergent results for key {key[:16]}"
                )
        sources = {}
        for answer in answers:
            sources[answer["source"]] = sources.get(answer["source"], 0) + 1

        # Warm rerun: every body answers from the memo cache, over the
        # one connection this thread keeps.  The count before it is read
        # over a probe's own connection, which the count includes.
        probe = ServiceClient(port=port)
        connections_before = probe.stats()["connections"]
        probe.close()
        t0 = time.monotonic()
        warm = [client.simulate(**body) for body in bodies]
        warm_s = time.monotonic() - t0
        not_memo = [a["source"] for a in warm if a["source"] != "memo"]
        assert not not_memo, f"warm rerun was not 100% memo: {not_memo}"

        stats = client.stats()
        warm_connections = stats["connections"] - connections_before
        assert warm_connections == 1, (
            f"warm rerun opened {warm_connections} connections, not 1"
        )
        client.shutdown()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    # The ledger is flushed on shutdown; audit exactly-once execution.
    completed = _audit_ledger(artifacts / "ledger")
    doubles = {k: n for k, n in completed.items() if n != 1}
    assert not doubles, f"double executions: {doubles}"
    assert sorted(completed) == sorted(by_key), (
        "ledger keys do not match served keys"
    )

    summary = {
        "requests": len(bodies),
        "distinct_keys": len(by_key),
        "executions": len(completed),
        "cold_sources": sources,
        "cold_wall_s": round(cold_s, 3),
        "warm_wall_s": round(warm_s, 3),
        "warm_memo": len(warm),
        "warm_connections": warm_connections,
        "server_stats": stats,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
    print(
        f"ok: {len(bodies)} concurrent requests over {len(by_key)} keys -> "
        f"{len(completed)} executions (exactly-once), warm rerun 100% memo "
        "over one connection"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
