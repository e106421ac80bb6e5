"""Secondary TLB (STLB) model.

SPADE PEs share their host core's STLB (Section 4.1, "like the DMA
engines in [24]").  Pages of the matrix structures are pinned before a
SPADE-mode section, so PEs never page-fault, but they *can* suffer TLB
misses.  The model is a fully-associative LRU translation cache at page
granularity: a one-set :class:`~repro.memory.cache.Cache` with
``entries`` ways, keyed by page number, whose entries are never dirty,
so every replay backend drives it like any other cache level.  Misses
cost a fixed page-walk latency that feeds the timing model's average
access latency.
"""

from __future__ import annotations

from repro.config import CACHE_LINE_BYTES
from repro.memory.address import PAGE_BYTES
from repro.memory.cache import Cache, fully_associative

DEFAULT_STLB_ENTRIES = 1536
"""Ice Lake STLB capacity (shared 4K/2M second-level TLB)."""

PAGE_WALK_LATENCY_NS = 50.0
"""Approximate page-table-walk latency on an STLB miss."""

LINES_PER_PAGE = PAGE_BYTES // CACHE_LINE_BYTES
"""Cache lines per page: the STLB key of line ``x`` is
``x // LINES_PER_PAGE``."""


class STLB(Cache):
    """Shared second-level TLB for one core's PEs."""

    __slots__ = ()

    def __init__(
        self, entries: int = DEFAULT_STLB_ENTRIES, name: str = "stlb"
    ) -> None:
        super().__init__(fully_associative(entries), name=name)

    def translate_line(self, line: int) -> bool:
        """Translate the page containing a cache line; returns hit."""
        return self.access(line // LINES_PER_PAGE)[0]

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def walk_overhead_ns(self) -> float:
        """Total page-walk time accumulated so far."""
        return self.misses * PAGE_WALK_LATENCY_NS
