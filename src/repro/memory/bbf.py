"""Bypass Buffer (BBF) with victim cache.

Each SPADE PE has a BBF that lets accesses skip the cache hierarchy
(Section 4.1).  The BBF itself is a small fully-associative line buffer
that coalesces streaming accesses (the sparse input stream and the SDDMM
output stream); it is backed by a small set-associative *victim cache*
that captures the working set of bypassed rMatrix lines (Section 5.2,
third rMatrix case).  BBF contents go straight to/from DRAM, never
through L1/L2/LLC.

Both structures are write-back LRU caches: the stream buffer is a
one-set :class:`~repro.memory.cache.Cache` with ``entries`` ways, the
victim cache a set-associative one, so every replay backend drives them
like any other cache level.  The memory system charges a stream miss
to DRAM when it happens (a write if the access writes, else a read), so
a dirty stream-buffer victim only counts as a writeback; victim-cache
dirty evictions are DRAM writes.
"""

from __future__ import annotations

from repro.config import CacheConfig
from repro.memory.cache import Cache, fully_associative


class BypassBuffer:
    """Per-PE bypass path: stream buffer + victim cache."""

    __slots__ = ("name", "stream", "victim")

    def __init__(
        self,
        entries: int,
        victim_config: CacheConfig,
        name: str = "bbf",
    ) -> None:
        self.name = name
        self.stream = Cache(fully_associative(entries), name=f"{name}.stream")
        self.victim = Cache(victim_config, name=f"{name}.victim")

    def flush(self) -> int:
        """Write back and invalidate buffer + victim cache; returns dirty
        lines written back (mode-transition cost, Section 7.D), counted
        into each cache's ``writebacks`` and ``flush_writebacks``."""
        return self.stream.flush() + self.victim.flush()

    def reset_stats(self) -> None:
        self.stream.reset_stats()
        self.victim.reset_stats()

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "stream": self.stream.state_dict(),
            "victim": self.victim.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.stream.load_state_dict(state["stream"])
        self.victim.load_state_dict(state["victim"])
