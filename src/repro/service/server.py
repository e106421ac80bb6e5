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
  ``asyncio.start_server`` (stdlib only — no web framework; the
  protocol surface is a few routes).  Connections are persistent: one
  carries request after request, each framed by ``Content-Length``,
  and the server closes it after a reply only when the client asked
  (``Connection: close``, or an HTTP/1.0 request), when the request
  could not be framed (400/411/413: its unread bytes are not a
  request), or on shutdown; an idle connection is closed silently
  after :data:`READ_TIMEOUT_S`, which also bounds how long one request
  may take to arrive.

Request path (``POST /v1/simulate``), cheapest exit first::

    parse+validate ── 400
      └─ memo probe (ResultCache) ── 200 source="memo"
           └─ coalesce join: waiter? ── quota check ── await leader
                └─ leader: memo probe again ── 200 source="memo"
                     └─ admission (queue bound, tenant quota)
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
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

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
            return self._memo(key, point, tenant, value, t0)
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
        # The key's previous leader may have published and left the
        # in-flight table between the probe above and the join: probe
        # again, or the key would execute twice.
        hit, value = self.cache.get(key)
        if hit:
            self.coalescer.resolve(key, JobResult(key=key, value=value))
            return self._memo(key, point, tenant, value, t0)
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
        if not pending.is_leader:
            source = "coalesced"
        return self._serve(Outcome(
            pending.key, pending.point, pending.tenant, source,
            result.value, result.attempt, pending.t0,
        ))

    def _memo(self, key: str, point: Tuple, tenant: str, value: Any,
              t0: float) -> Reply:
        self.memo_hits += 1
        return self._serve(
            Outcome(key, point, tenant, "memo", value, 1, t0)
        )

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
                "attempts": exc.attempts,
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

READ_TIMEOUT_S = 30.0
"""How long a kept connection may sit idle before the server closes it,
and how long a request may take to arrive once its first byte has."""

_STATUS_LINES = {
    200: "200 OK", 400: "400 Bad Request",
    404: "404 Not Found", 405: "405 Method Not Allowed",
    411: "411 Length Required", 413: "413 Payload Too Large",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error", 502: "502 Bad Gateway",
    503: "503 Service Unavailable",
}


@dataclass
class _Request:
    method: str
    path: str
    body: bytes
    keep_alive: bool


class _Unframed(Exception):
    """A request whose end cannot be found: answered with ``status``,
    then the connection is closed (its unread bytes are not a request)."""

    def __init__(self, status: int, error: str) -> None:
        super().__init__(error)
        self.status = status


async def _read_request(first: bytes,
                        reader: asyncio.StreamReader) -> _Request:
    """Read one request whose first byte is ``first``.  Raises
    :class:`_Unframed`, or ``IncompleteReadError`` when the peer closes
    mid-request."""
    try:
        parts = (first + await reader.readline()).decode("latin-1").split()
        if len(parts) < 2:
            raise _Unframed(400, "malformed request line")
        # HTTP/1.0 (and a request line without a version) closes.
        keep_alive = len(parts) > 2 and parts[2].upper() == "HTTP/1.1"
        content_length = None
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length":
                if not (value.isascii() and value.isdigit()) or (
                    content_length not in (None, int(value))
                ):
                    raise _Unframed(400, "bad Content-Length")
                content_length = int(value)
            elif name == "transfer-encoding":
                raise _Unframed(
                    411, "Transfer-Encoding is not supported; "
                         "send the body with Content-Length"
                )
            elif name == "connection" and "close" in (
                token.strip().lower() for token in value.split(",")
            ):
                keep_alive = False
    except ValueError:  # a line past the stream's limit
        raise _Unframed(400, "request line or header too long") from None
    if content_length is not None and content_length > MAX_BODY_BYTES:
        raise _Unframed(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(content_length) \
        if content_length else b""
    return _Request(parts[0].upper(), parts[1], body, keep_alive)


def _render(reply: Reply, keep_alive: bool) -> bytes:
    """The reply's bytes on the wire, head and body."""
    if "__raw_text__" in reply.payload:
        body = str(reply.payload["__raw_text__"]).encode()
        content_type = "text/plain; version=0.0.4"
    else:
        body = json.dumps(reply.payload, sort_keys=True).encode()
        content_type = "application/json"
    status_line = _STATUS_LINES.get(reply.status, f"{reply.status} Status")
    headers = [
        f"HTTP/1.1 {status_line}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: keep-alive" if keep_alive else "Connection: close",
    ]
    if reply.retry_after_s > 0:
        headers.append(
            f"Retry-After: {max(1, int(reply.retry_after_s + 0.999))}"
        )
    return "\r\n".join(headers).encode() + b"\r\n\r\n" + body


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
        self.connections = 0  # accepted since start
        # Writers of the connections waiting for a request's first byte:
        # shutdown closes these at once and lets busy ones finish.
        self._idle: Set[asyncio.StreamWriter] = set()

    # -- plumbing --------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one connection: requests one after another, each framed
        by ``Content-Length``, until a reply closes it."""
        self.connections += 1
        try:
            while not self._stop.is_set():
                # Idle: no byte of the next request yet.  A timeout or
                # the peer's close ends the connection without a reply.
                self._idle.add(writer)
                try:
                    first = await asyncio.wait_for(
                        reader.readexactly(1), timeout=READ_TIMEOUT_S
                    )
                except (asyncio.TimeoutError,
                        asyncio.IncompleteReadError):
                    return
                finally:
                    self._idle.discard(writer)
                if self._stop.is_set():
                    return  # shutdown closed us as the byte came in
                reply, keep_alive = await self._respond(first, reader)
                keep_alive = keep_alive and not self._stop.is_set()
                writer.write(_render(reply, keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (OSError, asyncio.IncompleteReadError):
            pass  # the peer went away mid-request or mid-reply
        finally:
            writer.close()

    async def _respond(self, first: bytes,
                       reader: asyncio.StreamReader) -> Tuple[Reply, bool]:
        """Read the rest of one request and answer it; says whether the
        connection may carry another request."""
        try:
            request = await asyncio.wait_for(
                _read_request(first, reader), timeout=READ_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            return Reply(400, {"error": "request timed out"}), False
        except _Unframed as exc:
            return Reply(exc.status, {"error": str(exc)}), False
        try:
            reply = await self._route(
                request.method, request.path, request.body
            )
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            reply = Reply(500, {"error": f"internal error: {exc}"})
        return reply, request.keep_alive

    def _stats(self) -> Dict[str, Any]:
        return dict(self.service.stats(), connections=self.connections)

    async def _route(self, method: str, path: str,
                     raw: bytes) -> Reply:
        if method == "GET":
            if path == "/healthz":
                return Reply(200, {"ok": True})
            if path == "/v1/stats":
                return Reply(200, self._stats())
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
        # payload key makes _render emit the body verbatim.
        from repro.obs import service_metrics, to_prometheus

        text = to_prometheus(service_metrics(self._stats()))
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
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            # Stop accepting, then end every idle keep-alive connection
            # (its handler sees end of stream).  Nothing here waits for
            # the connections to drain: which ones ``Server.wait_closed``
            # waits for differs between Python versions.
            self._server.close()
            for writer in list(self._idle):
                writer.close()

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
