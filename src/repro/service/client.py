"""Blocking HTTP client for the simulation service (stdlib only).

Used by ``repro submit``, the tests, and the CI ``service-smoke`` lane.
One :class:`ServiceClient` per endpoint.  Each calling thread keeps one
persistent HTTP/1.1 connection (``threading.local``), so sequential
requests from a thread share a connection and one client instance is
safe to share across threads — the smoke lane fires 32 concurrent
requests through one of these, one thread each.  The server closes an
idle connection after a while; a request that finds its kept
connection closed before any byte of a reply came back is sent once
more on a fresh one.  That resend is safe: a key executes at most once
(memo and coalescing), and every other route is idempotent.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import SpadeError


class ServiceError(SpadeError):
    """A non-2xx service answer, carrying the decoded payload."""

    def __init__(self, status: int, payload: Dict[str, Any],
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(
            f"service returned {status}: "
            f"{payload.get('error', 'unknown error')}"
        )
        self.status = status
        self.payload = payload
        self.retry_after_s = retry_after_s


# Failures that leave no byte of a reply read: the send failed, or the
# peer closed or reset before a status line (``RemoteDisconnected`` is a
# ``ConnectionResetError``).
_NO_REPLY = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


class ServiceClient:
    """Talk to one ``repro serve`` endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8765,
                 timeout_s: float = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._local = threading.local()

    # -- raw transport ---------------------------------------------------

    def request(
        self, method: str, path: str, body: Optional[Mapping] = None
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """One HTTP exchange; returns (status, json payload, headers)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        raw = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if raw else {}
        reused = conn.sock is not None
        try:
            try:
                conn.request(method, path, body=raw, headers=headers)
                response = conn.getresponse()
            except _NO_REPLY:
                # Only a kept connection is retried, and only once: the
                # server closed it while idle, so the request was never
                # read.  A fresh connection failing is a real failure.
                if not reused:
                    raise
                conn.close()
                conn.request(method, path, body=raw, headers=headers)
                response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()  # a half-read exchange cannot be continued
            raise
        header_map = {
            k.lower(): v for k, v in response.getheaders()
        }
        if header_map.get("content-type", "").startswith(
            "application/json"
        ):
            payload = json.loads(data.decode("utf-8")) if data else {}
        else:
            payload = {"text": data.decode("utf-8", "replace")}
        return response.status, payload, header_map

    def close(self) -> None:
        """Close the calling thread's connection (the next request from
        this thread opens a new one)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()

    def _checked(self, method: str, path: str,
                 body: Optional[Mapping] = None) -> Dict[str, Any]:
        status, payload, headers = self.request(method, path, body)
        if status >= 400:
            retry_after = headers.get("retry-after")
            raise ServiceError(
                status, payload,
                float(retry_after) if retry_after else None,
            )
        return payload

    # -- API -------------------------------------------------------------

    def simulate(self, **fields: Any) -> Dict[str, Any]:
        """POST /v1/simulate; returns the answer payload (``result``
        holds the summary dict, ``source`` says where it came from)."""
        return self._checked("POST", "/v1/simulate", fields)

    def sweep(self, grid: Mapping[str, Any],
              tenant: Optional[str] = None,
              priority: str = "batch") -> Dict[str, Any]:
        body: Dict[str, Any] = {"grid": dict(grid), "priority": priority}
        if tenant is not None:
            body["tenant"] = tenant
        return self._checked("POST", "/v1/sweep", body)

    def healthy(self) -> bool:
        try:
            status, payload, _ = self.request("GET", "/healthz")
        except (OSError, ValueError):
            return False
        return status == 200 and payload.get("ok") is True

    def stats(self) -> Dict[str, Any]:
        return self._checked("GET", "/v1/stats")

    def metrics_text(self) -> str:
        status, payload, _ = self.request("GET", "/metrics")
        if status != 200:
            raise ServiceError(status, payload)
        return payload.get("text", "")

    def shutdown(self) -> None:
        self._checked("POST", "/v1/shutdown", {})
