"""The service's HTTP transport: persistent connections and framing.

One connection carries request after request (``Content-Length``
framing); the server closes it after a reply only when the client asks
(``Connection: close``, HTTP/1.0), when a request cannot be framed, or
on shutdown, and closes an idle one silently after
``READ_TIMEOUT_S``.  ``ServiceClient`` keeps one connection per calling
thread and resends once when a kept connection was closed under it.
Every test runs against an in-process ``ServiceServer``; the raw-socket
tests speak HTTP bytes directly so the server's own framing is what is
tested, not ``http.client``'s.
"""

import asyncio
import json
import socket
import threading
import time
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.service.server as server_mod
from repro.service import ServicePool
from repro.service.admission import AdmissionPolicy
from repro.service.client import ServiceClient
from repro.service.server import (
    MAX_BODY_BYTES,
    ServiceServer,
    SimulationService,
)
from repro.service.simulate import to_plain
from repro.sweep.cache import ResultCache

POINT_ARGS = {
    "matrix": "ASI", "scale": "tiny", "kernel": "spmm", "k": 8, "pes": 2,
}

GENEROUS = AdmissionPolicy(
    max_queue=256, interactive_reserve=0,
    quota_rate=10_000.0, quota_burst=10_000.0,
)


def _start(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    pool = ServicePool(cache, workers=1)
    server = ServiceServer(
        SimulationService(cache, pool, policy=GENEROUS), port=0
    )
    server.start_background()
    return server, pool


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    server, pool = _start(tmp_path_factory.mktemp("http"))
    try:
        yield server, pool
    finally:
        server.stop()
        pool.close()


def _connect(port) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=10)


def _read_reply(stream):
    """One reply off a buffered socket file: (status, headers, payload),
    or None at end of stream."""
    status_line = stream.readline()
    if not status_line:
        return None
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return status, headers, json.loads(body)


def _exchange(port, data: bytes, replies: int):
    """Send raw bytes on a new connection; returns the first ``replies``
    replies and whether the server closed the connection after them."""
    with _connect(port) as sock, sock.makefile("rb") as stream:
        sock.sendall(data)
        got = [_read_reply(stream) for _ in range(replies)]
        sock.settimeout(0.5)
        try:
            closed = stream.read(1) == b""
        except ConnectionResetError:  # closed with our bytes unread
            closed = True
        except (socket.timeout, TimeoutError):
            closed = False
    return got, closed


class TestPersistentConnections:
    def test_sequential_requests_share_one_connection(self, served):
        server, _ = served
        client = ServiceClient(port=server.port)
        before = server.connections
        try:
            for _ in range(8):
                assert client.healthy()
            client.simulate(**POINT_ARGS)
            client.simulate(**POINT_ARGS)  # a memo hit
            stats = client.stats()
            assert stats["connections"] == before + 1
            assert f"spade_service_connections {before + 1}" in (
                client.metrics_text().splitlines()
            )
        finally:
            client.close()

    def test_each_thread_keeps_its_own_connection(self, served):
        server, _ = served
        client = ServiceClient(port=server.port)
        before = server.connections
        results = []

        def _burst():
            results.extend(client.healthy() for _ in range(5))
            client.close()

        threads = [threading.Thread(target=_burst) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert results == [True] * 10
        assert server.connections == before + 2

    def test_pipelined_requests_answered_in_order(self, served):
        server, _ = served
        body = json.dumps({"matrix": "nope"}).encode()
        data = (
            b"GET /nope-1 HTTP/1.1\r\n\r\n"
            + b"POST /v1/simulate HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body
            + b"GET /healthz HTTP/1.1\r\n\r\n"
            + b"GET /nope-2 HTTP/1.1\r\n\r\n"
        )
        replies, closed = _exchange(server.port, data, replies=4)
        assert [r[0] for r in replies] == [404, 400, 200, 404]
        assert "/nope-1" in replies[0][2]["error"]
        assert "suite names" in replies[1][2]["error"]
        assert replies[2][2] == {"ok": True}
        assert "/nope-2" in replies[3][2]["error"]
        assert all(r[1]["connection"] == "keep-alive" for r in replies)
        assert not closed

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nConnection: foo, Close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    ], ids=["close", "close-token", "http10", "http10-keep-alive"])
    def test_closing_requests_get_a_closing_reply(self, served,
                                                  request_bytes):
        server, _ = served
        # A second request behind the first must go unanswered.
        replies, closed = _exchange(
            server.port, request_bytes + b"GET /healthz HTTP/1.1\r\n\r\n",
            replies=1,
        )
        status, headers, payload = replies[0]
        assert (status, payload) == (200, {"ok": True})
        assert headers["connection"] == "close"
        assert closed


class TestFramingErrors:
    @pytest.mark.parametrize("request_bytes,status", [
        (b"NONSENSE\r\n\r\n", 400),
        (b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 1x\r\n\r\n1x",
         400),
        (b"POST /v1/simulate HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
         400),
        (b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 2\r\n"
         b"Content-Length: 3\r\n\r\n{}", 400),
        (b"POST /v1/simulate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
         b"\r\n19\r\nGET /healthz HTTP/1.1\r\n\r\n\r\n0\r\n\r\n", 411),
        (b"POST /v1/simulate HTTP/1.1\r\nContent-Length: "
         + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n{}", 413),
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000
         + b"\r\n\r\n", 400),
    ], ids=["request-line", "content-length-not-a-number",
            "content-length-negative", "content-length-conflict",
            "transfer-encoding", "too-large", "header-too-long"])
    def test_unframed_request_closes_the_connection(self, served,
                                                    request_bytes, status):
        server, _ = served
        # Whatever follows the bad request is not read as a request.
        replies, closed = _exchange(
            server.port, request_bytes + b"GET /healthz HTTP/1.1\r\n\r\n",
            replies=1,
        )
        assert replies[0][0] == status
        assert replies[0][1]["connection"] == "close"
        assert closed
        # The server keeps serving other connections.
        client = ServiceClient(port=server.port)
        try:
            assert client.healthy()
        finally:
            client.close()

    @pytest.mark.parametrize("partial", [
        b"GET /healthz HTTP/1.1\r\n",
        b"GET /heal",
        b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
    ], ids=["headers", "request-line", "body"])
    def test_stall_mid_request_gets_400_and_close(self, served, monkeypatch,
                                                  partial):
        server, _ = served
        monkeypatch.setattr(server_mod, "READ_TIMEOUT_S", 0.3)
        t0 = time.monotonic()
        replies, closed = _exchange(server.port, partial, replies=1)
        assert replies[0][0] == 400
        assert replies[0][2]["error"] == "request timed out"
        assert replies[0][1]["connection"] == "close"
        assert closed
        assert time.monotonic() - t0 < 5.0

    def test_idle_connection_closed_silently(self, served, monkeypatch):
        server, _ = served
        monkeypatch.setattr(server_mod, "READ_TIMEOUT_S", 0.3)
        with _connect(server.port) as fresh, fresh.makefile("rb") as f:
            assert f.read() == b""  # never used: no reply, just closed
        with _connect(server.port) as kept, kept.makefile("rb") as f:
            kept.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_reply(f)[0] == 200
            assert f.read() == b""  # idle after a reply: closed


class TestClientResend:
    def test_reconnects_once_after_the_server_closed_an_idle_connection(
        self, served, monkeypatch
    ):
        server, pool = served
        monkeypatch.setattr(server_mod, "READ_TIMEOUT_S", 0.2)
        point = dict(POINT_ARGS, k=12)  # a key no other test runs
        client = ServiceClient(port=server.port)
        before = server.connections
        executed = pool.executed
        try:
            first = client.simulate(**point)
            sock = client._local.conn.sock
            # Wait until the server has closed the kept connection.
            sock.settimeout(5.0)
            assert sock.recv(1, socket.MSG_PEEK) == b""
            second = client.simulate(**point)
        finally:
            client.close()
        assert first["source"] == "executed"
        assert second["source"] == "memo"
        assert second["result"] == first["result"]
        assert pool.executed == executed + 1
        assert server.connections == before + 2

    def test_a_fresh_connection_is_not_retried(self, tmp_path):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            port = listener.getsockname()[1]
            # Bound but not listening: connecting is refused.
            client = ServiceClient(port=port, timeout_s=5.0)
            with pytest.raises(ConnectionRefusedError):
                client.request("GET", "/healthz")


class TestShutdown:
    def test_returns_promptly_with_idle_connections_open(self, tmp_path,
                                                         monkeypatch):
        # Since Python 3.12, Server.wait_closed waits for every open
        # connection; earlier versions return at once.  Shutdown must
        # not rely on either, so here it never returns.
        async def _never(self):
            await asyncio.Event().wait()

        monkeypatch.setattr(asyncio.base_events.Server, "wait_closed", _never)
        server, pool = _start(tmp_path)
        idle_client = ServiceClient(port=server.port, timeout_s=10.0)
        try:
            assert idle_client.healthy()  # kept open, idle
            with _connect(server.port) as raw, raw.makefile("rb") as f:
                other = ServiceClient(port=server.port)
                t0 = time.monotonic()
                status, payload, headers = other.request(
                    "POST", "/v1/shutdown", {}
                )
                server._thread.join(timeout=10)
                elapsed = time.monotonic() - t0
                assert (status, payload["stopping"]) == (200, True)
                assert headers["connection"] == "close"
                assert not server._thread.is_alive()
                assert elapsed < server_mod.READ_TIMEOUT_S / 10
                assert f.read() == b""  # the idle raw connection ended
            # The idle client's kept connection was closed too.
            assert idle_client._local.conn.sock.recv(1) == b""
        finally:
            idle_client.close()
            server.stop()
            pool.close()


def _general_to_plain(value):
    """``to_plain`` without its fast path: the general fold, the
    reference a memo hit's reply is held to."""
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (str, bytes)):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)
    if tolist is not None and not isinstance(value, (str, bytes)):
        return tolist()
    if isinstance(value, Mapping):
        return {str(k): _general_to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_general_to_plain(v) for v in value]
    return value


_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(allow_nan=False)
    | st.integers(-2**40, 2**40).map(np.int64)
    | st.floats(width=32, allow_nan=False).map(np.float32)
    | st.lists(st.integers(-9, 9), max_size=3).map(np.array)
)


class TestMemoReplyBytes:
    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        _LEAVES,
        lambda inner: (
            st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(st.text(max_size=4) | st.integers(0, 9),
                              inner, max_size=4)
        ),
        max_leaves=20,
    ))
    def test_fast_path_folds_like_the_general_one(self, value):
        plain = to_plain(value)
        assert json.dumps(plain) == json.dumps(_general_to_plain(value))
        # A memo hit folds an already plain summary: unchanged.
        assert json.dumps(to_plain(plain)) == json.dumps(plain)

    def test_memo_reply_carries_the_executed_bytes(self, served):
        server, _ = served
        body = json.dumps(dict(POINT_ARGS, k=16)).encode()
        request = (
            b"POST /v1/simulate HTTP/1.1\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        replies, _ = _exchange(server.port, request * 2, replies=2)
        (s1, _, first), (s2, _, memo) = replies
        assert (s1, s2) == (200, 200)
        assert memo["source"] == "memo"
        assert json.dumps(memo["result"]) == json.dumps(first["result"])
        assert json.dumps(memo["point"]) == json.dumps(first["point"])
