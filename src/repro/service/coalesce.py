"""Request coalescing: identical in-flight questions share one answer.

Simulation requests are content-addressed (:class:`repro.jobmodel
.JobSpec` keys), so "identical" is exact: same key, same result.  When
N clients ask for a key that is already executing, the first becomes
the **leader** (it owns the execution slot and the pool submission) and
the rest become **waiters** on the same :class:`concurrent.futures
.Future`.  The leader resolves the future once; every waiter's HTTP
response materialises from that single outcome.

Correctness leans on the pool's publish-before-resolve ordering: the
pool writes the result to the :class:`~repro.sweep.cache.ResultCache`
*before* the future resolves, and a request that becomes a leader
probes the cache once more after joining.  A key whose previous leader
published between a request's memo probe and its join therefore hits
on that second probe — there is no window where a key is neither
in-flight nor cached yet already executed, so each key runs **at most
once per cache lifetime** in one service (pinned by the ledger
exactly-once audit in ``tests/test_service_parity.py``).

Futures are :mod:`concurrent.futures` (thread-safe, resolvable from
the pool thread); the asyncio server bridges with
:func:`asyncio.wrap_future`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass
class InFlight:
    """One key's shared execution: the future every waiter awaits."""

    key: str
    future: Future = field(default_factory=Future)
    waiters: int = 1  # leader included


class Coalescer:
    """Thread-safe registry of in-flight keys."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, InFlight] = {}
        self.leaders = 0
        self.coalesced = 0

    def join(self, key: str) -> Tuple[bool, InFlight]:
        """Attach to ``key``'s execution; returns ``(is_leader,
        entry)``.  The leader must eventually :meth:`resolve` or
        :meth:`fail` the key, or every waiter hangs."""
        with self._lock:
            entry = self._inflight.get(key)
            if entry is not None:
                entry.waiters += 1
                self.coalesced += 1
                return False, entry
            entry = InFlight(key=key)
            self._inflight[key] = entry
            self.leaders += 1
            return True, entry

    def resolve(self, key: str, value: object) -> None:
        """Publish the outcome to every waiter and retire the key.
        The entry is removed *before* the future resolves so a racing
        ``join`` either becomes a waiter (entry still present) or a
        leader whose cache probe after the join finds the result the
        pool already published."""
        entry = self._pop(key)
        if entry is not None and not entry.future.done():
            entry.future.set_result(value)

    def fail(self, key: str, exc: BaseException) -> None:
        entry = self._pop(key)
        if entry is not None and not entry.future.done():
            entry.future.set_exception(exc)

    def _pop(self, key: str) -> Optional[InFlight]:
        with self._lock:
            return self._inflight.pop(key, None)

    # -- inspection ------------------------------------------------------

    def peek(self, key: str) -> Optional[InFlight]:
        with self._lock:
            return self._inflight.get(key)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "in_flight": len(self._inflight),
                "leaders": self.leaders,
                "coalesced": self.coalesced,
            }
