"""Simulation-as-a-service: the asyncio HTTP front end.

Two layers, separable for testing:

- :class:`SimulationService` — the transport-agnostic request path.
  ``begin(body)`` classifies one request (400 / memo hit / rejected /
  leader / coalesced waiter) and either returns a finished
  :class:`Reply` or a :class:`PendingReply` whose future the caller
  awaits; ``finish(pending, ...)`` turns the awaited outcome into the
  final :class:`Reply`.  ``begin`` must be called from **one** thread
  (the asyncio loop) — single-threaded classification is what makes
  the leader/waiter split race-free; the heavy lifting happens on the
  pool's worker processes.
- :class:`ServiceServer` — a hand-rolled HTTP/1.1 server on
  ``asyncio.start_server`` (stdlib only — the container has no web
  framework, and the protocol surface is five routes with
  ``Connection: close`` semantics).

Request path (``POST /v1/simulate``), cheapest exit first::

    parse+validate ── 400
      └─ memo probe (ResultCache) ── 200 source="memo"
           └─ coalesce join: waiter? ── quota check ── await leader
                └─ leader: admission (queue bound, tenant quota)
                     ├─ 429 / 503 (+ Retry-After)
                     └─ pool.submit → await → 200 source="executed"
                                             (5xx on quarantine/failure)

Every transition writes a ``service`` ledger event, so ``repro obs
report`` can reconstruct the memo-hit ratio and the coalescing fan-in
after the fact; ``GET /metrics`` renders the ``spade_service_*``
series from :meth:`SimulationService.stats`, where each is counted
once.

Routes: ``POST /v1/simulate``, ``POST /v1/sweep`` (a grid body fans
out through the same per-key path), ``GET /healthz``, ``GET
/v1/stats``, ``GET /metrics`` (Prometheus text), ``POST
/v1/shutdown``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import SpadeError, WorkloadError
from repro.jobmodel import JobResult
from repro.obs.ledger import NULL_LEDGER
from repro.service.admission import (
    DEFAULT_TENANT,
    PRIORITIES,
    AdmissionController,
    AdmissionPolicy,
)
from repro.service.coalesce import Coalescer
from repro.sweep.pool import (
    ServiceExecutionError,
    ServicePool,
    ServiceQuarantined,
)
from repro.service.simulate import (
    RUN_POINT_FIELDS,
    request_point,
    run_cell,
    run_jobspec,
    to_plain,
)
from repro.sweep.cache import ResultCache

SERVICE_SCHEMA_VERSION = 1
MAX_BODY_BYTES = 1 << 20  # a request is a small JSON object


@dataclass
class Reply:
    """One finished HTTP answer (transport-agnostic)."""

    status: int
    payload: Dict[str, Any]
    retry_after_s: float = 0.0


@dataclass
class PendingReply:
    """A request awaiting an in-flight execution's future."""

    future: Any  # concurrent.futures.Future[JobResult]
    key: str
    point: Tuple
    tenant: str
    priority: str
    is_leader: bool
    t0: float


class SimulationService:
    """The request path shared by the HTTP server and in-process tests."""

    def __init__(
        self,
        cache: ResultCache,
        pool: ServicePool,
        policy: Optional[AdmissionPolicy] = None,
        ledger=None,
        clock=None,
    ) -> None:
        self.cache = cache
        self.pool = pool
        self.admission = AdmissionController(policy, clock=clock)
        self.coalescer = Coalescer()
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self.requests = 0
        self.memo_hits = 0
        self.served = 0

    # -- request classification (single-threaded) ------------------------

    def begin(self, body: Any) -> Union[Reply, PendingReply]:
        self.requests += 1
        t0 = time.perf_counter()
        tenant = DEFAULT_TENANT
        priority = "interactive"
        if isinstance(body, Mapping):
            tenant = str(body.get("tenant") or DEFAULT_TENANT)
            priority = str(body.get("priority") or "interactive")
        try:
            if priority not in PRIORITIES:
                raise WorkloadError(
                    f"priority must be one of {PRIORITIES}, "
                    f"got {priority!r}"
                )
            point = request_point(body)
        except WorkloadError as exc:
            self._emit("failed", code=400, reason=str(exc),
                       tenant=tenant)
            return Reply(400, {"error": str(exc)})
        spec = run_jobspec(point)
        key = spec.key
        self._emit("request_received", key=key, tenant=tenant,
                   priority=priority)
        hit, value = self.cache.get(key)
        if hit:
            self.memo_hits += 1
            return self._serve(
                Outcome(key, point, tenant, "memo", value, 1, t0)
            )
        is_leader, entry = self.coalescer.join(key)
        if not is_leader:
            # Coalesced: charged quota (popularity is not free) but no
            # queue slot (the execution is already accounted for).
            self._emit("coalesced", key=key, tenant=tenant,
                       priority=priority)
            decision = self.admission.admit(
                tenant, priority, needs_slot=False
            )
            if not decision.ok:
                return self._reject(key, tenant, priority, decision)
            self._emit("admitted", key=key, tenant=tenant,
                       priority=priority)
            return PendingReply(
                entry.future, key, point, tenant, priority,
                is_leader=False, t0=t0,
            )
        decision = self.admission.admit(tenant, priority,
                                        needs_slot=True)
        if not decision.ok:
            # Retire the in-flight entry we just created: the next
            # request for this key must become a fresh leader.
            self.coalescer.fail(
                key, SpadeError("leader rejected by admission")
            )
            return self._reject(key, tenant, priority, decision)
        self._emit("admitted", key=key, tenant=tenant,
                   priority=priority)
        pool_future = self.pool.submit(
            spec, run_cell, priority=priority
        )
        pool_future.add_done_callback(
            self._make_leader_callback(key)
        )
        return PendingReply(
            entry.future, key, point, tenant, priority,
            is_leader=True, t0=t0,
        )

    def _make_leader_callback(self, key: str):
        """Fan the pool's outcome out to every coalesced waiter and
        return the admission slot.  Runs on the pool dispatcher thread;
        Coalescer and AdmissionController are thread-safe."""
        def _done(fut) -> None:
            self.admission.release()
            exc = fut.exception()
            if exc is not None:
                self.coalescer.fail(key, exc)
            else:
                self.coalescer.resolve(key, fut.result())
        return _done

    # -- outcome rendering ----------------------------------------------

    def finish(self, pending: PendingReply,
               result: Optional[JobResult],
               exc: Optional[BaseException] = None) -> Reply:
        if exc is not None:
            return self._serve_error(pending, exc)
        source = result.source
        if not pending.is_leader and source in ("executed", "cached"):
            source = "coalesced"
        return self._serve(Outcome(
            pending.key, pending.point, pending.tenant, source,
            result.value, result.attempt, pending.t0,
        ))

    def _serve(self, outcome: "Outcome") -> Reply:
        wall_s = time.perf_counter() - outcome.t0
        self.served += 1
        self._emit(
            "served", key=outcome.key, tenant=outcome.tenant,
            source=outcome.source, wall_s=round(wall_s, 6),
            attempt=outcome.attempt,
        )
        fields = dict(zip(RUN_POINT_FIELDS, outcome.point))
        return Reply(200, {
            "schema_version": SERVICE_SCHEMA_VERSION,
            "key": outcome.key,
            "source": outcome.source,
            "attempt": outcome.attempt,
            "point": to_plain(fields),
            "result": to_plain(outcome.value),
        })

    def _serve_error(self, pending: PendingReply,
                     exc: BaseException) -> Reply:
        if isinstance(exc, ServiceQuarantined):
            self._emit("failed", key=pending.key,
                       tenant=pending.tenant, code=503,
                       reason=str(exc))
            return Reply(503, {
                "error": str(exc),
                "key": pending.key,
                "quarantine_manifest": exc.manifest_path,
            })
        code = 500 if isinstance(exc, ServiceExecutionError) else 502
        self._emit("failed", key=pending.key, tenant=pending.tenant,
                   code=code, reason=str(exc))
        return Reply(code, {"error": str(exc), "key": pending.key})

    def _reject(self, key: str, tenant: str, priority: str,
                decision) -> Reply:
        self._emit(
            "rejected", key=key, tenant=tenant, priority=priority,
            code=decision.code, reason=decision.reason,
        )
        return Reply(
            decision.code,
            {"error": decision.reason, "key": key},
            retry_after_s=decision.retry_after_s,
        )

    def _emit(self, status: str, **fields: Any) -> None:
        if self.ledger.enabled:
            self.ledger.emit("service", status=status, **fields)

    # -- inspection ------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "schema_version": SERVICE_SCHEMA_VERSION,
            "requests": self.requests,
            "memo_hits": self.memo_hits,
            "served": self.served,
            "admission": self.admission.stats(),
            "coalescing": self.coalescer.stats(),
            "pool": self.pool.stats(),
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "writes": self.cache.writes,
            },
        }


@dataclass
class Outcome:
    """Internal: one successful answer ready to render."""

    key: str
    point: Tuple
    tenant: str
    source: str
    value: Any
    attempt: int
    t0: float


# -- sweep fan-out ----------------------------------------------------------


def sweep_points(body: Any) -> List[Tuple]:
    """Expand a ``/v1/sweep`` grid body into validated points.

    The grid is a simulate body whose fields may be lists; the cross
    product is taken in :data:`RUN_POINT_FIELDS` order, each combination
    validated through the standard single-request path."""
    if not isinstance(body, Mapping) or not isinstance(
        body.get("grid"), Mapping
    ):
        raise WorkloadError(
            'sweep body must be {"grid": {...}} with list-valued fields'
        )
    grid = body["grid"]
    axes: List[List[Any]] = []
    for name in RUN_POINT_FIELDS:
        if name not in grid:
            axes.append([None])
            continue
        value = grid[name]
        if isinstance(value, list):
            if not value:
                raise WorkloadError(f"grid field {name!r} is an empty list")
            axes.append(value)
        else:
            axes.append([value])
    points = []
    for combo in itertools.product(*axes):
        request = {
            name: value
            for name, value in zip(RUN_POINT_FIELDS, combo)
            if value is not None
        }
        points.append(request_point(request))
    return points


MAX_SWEEP_POINTS = 256


# -- the HTTP layer ---------------------------------------------------------


class ServiceServer:
    """Minimal HTTP/1.1 front end for one :class:`SimulationService`."""

    def __init__(self, service: SimulationService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = None  # asyncio.Event, created on the loop
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    # -- plumbing --------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            reply, extra_headers = await self._respond(reader)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            reply = Reply(500, {"error": f"internal error: {exc}"})
            extra_headers = {}
        if "__raw_text__" in reply.payload:
            body = str(reply.payload["__raw_text__"]).encode()
            content_type = "text/plain; version=0.0.4"
        else:
            body = json.dumps(reply.payload, sort_keys=True).encode()
            content_type = "application/json"
        status_line = {
            200: "200 OK", 400: "400 Bad Request",
            404: "404 Not Found", 405: "405 Method Not Allowed",
            413: "413 Payload Too Large",
            429: "429 Too Many Requests",
            500: "500 Internal Server Error", 502: "502 Bad Gateway",
            503: "503 Service Unavailable",
        }.get(reply.status, f"{reply.status} Status")
        headers = [
            f"HTTP/1.1 {status_line}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        if reply.retry_after_s > 0:
            headers.append(
                f"Retry-After: {max(1, int(reply.retry_after_s + 0.999))}"
            )
        for name, value in extra_headers.items():
            headers.append(f"{name}: {value}")
        writer.write(
            "\r\n".join(headers).encode() + b"\r\n\r\n" + body
        )
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[Reply, Dict[str, str]]:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=30.0
            )
        except asyncio.TimeoutError:
            return Reply(400, {"error": "request timed out"}), {}
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return Reply(400, {"error": "malformed request line"}), {}
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return Reply(
                        400, {"error": "bad Content-Length"}
                    ), {}
        if content_length > MAX_BODY_BYTES:
            return Reply(413, {
                "error": f"body exceeds {MAX_BODY_BYTES} bytes"
            }), {}
        raw = await reader.readexactly(content_length) \
            if content_length else b""
        return await self._route(method, path, raw), {}

    async def _route(self, method: str, path: str,
                     raw: bytes) -> Reply:
        if method == "GET":
            if path == "/healthz":
                return Reply(200, {"ok": True})
            if path == "/v1/stats":
                return Reply(200, self.service.stats())
            if path == "/metrics":
                return self._metrics_reply()
            return Reply(404, {"error": f"no route {method} {path}"})
        if method != "POST":
            return Reply(405, {"error": f"method {method} not allowed"})
        if path == "/v1/shutdown":
            if self._stop is not None:
                self._stop.set()
            return Reply(200, {"ok": True, "stopping": True})
        if path not in ("/v1/simulate", "/v1/sweep"):
            return Reply(404, {"error": f"no route {method} {path}"})
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError) as exc:
            return Reply(400, {"error": f"invalid JSON body: {exc}"})
        if path == "/v1/simulate":
            return await self._simulate(body)
        return await self._sweep(body)

    def _metrics_reply(self) -> Reply:
        # /metrics must be Prometheus text, not JSON; the sentinel
        # payload key makes _handle emit the body verbatim.
        from repro.obs import service_metrics, to_prometheus

        text = to_prometheus(service_metrics(self.service.stats()))
        return Reply(200, {"__raw_text__": text})

    async def _simulate(self, body: Any) -> Reply:
        outcome = self.service.begin(body)
        if isinstance(outcome, Reply):
            return outcome
        return await self._await_pending(outcome)

    async def _await_pending(self, pending: PendingReply) -> Reply:
        try:
            result = await asyncio.wrap_future(pending.future)
        except BaseException as exc:  # noqa: BLE001 - rendered as 5xx
            return self.service.finish(pending, None, exc)
        return self.service.finish(pending, result)

    async def _sweep(self, body: Any) -> Reply:
        try:
            points = sweep_points(body)
        except WorkloadError as exc:
            return Reply(400, {"error": str(exc)})
        if len(points) > MAX_SWEEP_POINTS:
            return Reply(400, {
                "error": f"sweep expands to {len(points)} points; "
                         f"limit is {MAX_SWEEP_POINTS}"
            })
        tenant = body.get("tenant")
        priority = body.get("priority") or "batch"
        replies: List[Optional[Reply]] = [None] * len(points)
        waits: List[Tuple[int, PendingReply]] = []
        for i, point in enumerate(points):
            request = dict(zip(RUN_POINT_FIELDS, point))
            if tenant is not None:
                request["tenant"] = tenant
            request["priority"] = priority
            outcome = self.service.begin(request)
            if isinstance(outcome, Reply):
                replies[i] = outcome
            else:
                waits.append((i, outcome))
        for i, pending in waits:
            replies[i] = await self._await_pending(pending)
        items = [
            {"status": reply.status, **reply.payload}
            for reply in replies
        ]
        worst = max((r.status for r in replies), default=200)
        return Reply(200 if worst < 400 else worst, {
            "schema_version": SERVICE_SCHEMA_VERSION,
            "points": len(points),
            "items": items,
        })

    # -- lifecycle -------------------------------------------------------

    async def serve(self) -> None:
        """Run until ``/v1/shutdown`` (or :meth:`stop`)."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_safe, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._started.set()
        async with self._server:
            await self._stop.wait()

    async def _handle_safe(self, reader, writer) -> None:
        try:
            await self._handle(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass

    def start_background(self, timeout_s: float = 10.0) -> None:
        """Run the loop on a daemon thread; returns once the socket is
        bound (``self.port`` then holds the real port)."""
        def _runner() -> None:
            asyncio.run(self.serve())

        self._thread = threading.Thread(
            target=_runner, name="service-http", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise SpadeError("service failed to start listening")

    def stop(self, timeout_s: float = 10.0) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
