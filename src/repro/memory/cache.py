"""Set-associative cache with LRU replacement and write-back policy.

Used for PE L1Ds, shared L2s, the sliced LLC, and the BBF victim cache;
as a single set (:func:`fully_associative`) it is also the BBF stream
buffer and the STLB.  Operates on cache-line indices (not byte
addresses); the state is one insertion-ordered dict per set, and
:meth:`Cache.access` is the scalar oracle that the compiled epoch
replay's cache walk (``repro/native/replay_epoch.c``) transcribes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import CACHE_LINE_BYTES, CacheConfig

def fully_associative(entries: int) -> CacheConfig:
    """Geometry of a one-set LRU structure with ``entries`` ways."""
    if entries < 1:
        raise ValueError("a fully-associative structure needs an entry")
    return CacheConfig(
        size_bytes=entries * CACHE_LINE_BYTES, associativity=entries
    )


class Cache:
    """One set-associative, write-back, write-allocate cache."""

    __slots__ = (
        "name", "num_sets", "ways", "_sets", "hits", "misses",
        "writebacks", "fills", "flush_writebacks",
    )

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.associativity
        # One insertion-ordered dict per set: {line: dirty_flag};
        # first key = LRU, last key = MRU.
        self._sets: List[Dict[int, bool]] = [
            {} for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.fills = 0
        self.flush_writebacks = 0

    # -- core operations -----------------------------------------------

    def access(self, line: int, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Access one line.

        Returns ``(hit, evicted_dirty_line)``.  On a miss the line is
        allocated (write-allocate); if the set overflows, the LRU line is
        evicted and, if dirty, returned so the caller can propagate the
        writeback to the next level.
        """
        s = self._sets[line % self.num_sets]
        dirty = s.get(line)
        if dirty is not None:
            # Hit: move to MRU position, merge dirty bit.
            del s[line]
            s[line] = dirty or is_write
            self.hits += 1
            return True, None
        self.misses += 1
        self.fills += 1
        evicted = None
        if len(s) >= self.ways:
            victim, victim_dirty = next(iter(s.items()))
            del s[victim]
            if victim_dirty:
                self.writebacks += 1
                evicted = victim
        s[line] = is_write
        return False, evicted

    def probe(self, line: int) -> bool:
        """Check residency without updating LRU state or counters."""
        return line in self._sets[line % self.num_sets]

    def invalidate(self, line: int) -> bool:
        """Drop one line if present; returns whether it was dirty."""
        s = self._sets[line % self.num_sets]
        dirty = s.pop(line, None)
        return bool(dirty)

    def flush(self) -> int:
        """Write back and invalidate everything; returns the number of
        dirty lines written back (mode-transition cost, Section 7.D).

        Flush-path writebacks are counted both in ``writebacks`` (total
        lines sent to the next level) and in ``flush_writebacks``, so
        epoch-boundary accounting can separate demand evictions from
        WB&Invalidate traffic.
        """
        dirty_count = 0
        for s in self._sets:
            dirty_count += sum(1 for d in s.values() if d)
            s.clear()
        self.writebacks += dirty_count
        self.flush_writebacks += dirty_count
        return dirty_count

    # -- inspection ------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)

    def dirty_lines(self) -> int:
        return sum(sum(1 for d in s.values() if d) for s in self._sets)

    def reset_stats(self) -> None:
        self.hits = self.misses = self.writebacks = self.fills = 0
        self.flush_writebacks = 0

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Full replayable state: per-set LRU contents (order = dict
        insertion order, first key LRU) plus the live counters."""
        return {
            "sets": [list(s.items()) for s in self._sets],
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "fills": self.fills,
            "flush_writebacks": self.flush_writebacks,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.  The geometry must
        match — snapshots are not portable across cache shapes."""
        if len(state["sets"]) != self.num_sets:
            raise ValueError(
                f"{self.name}: snapshot has {len(state['sets'])} sets, "
                f"cache has {self.num_sets}"
            )
        self._sets = [dict(items) for items in state["sets"]]
        self.hits = state["hits"]
        self.misses = state["misses"]
        self.writebacks = state["writebacks"]
        self.fills = state["fills"]
        self.flush_writebacks = state["flush_writebacks"]

    def counters(self) -> Dict[str, int]:
        """This cache's cumulative counters, by name."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "fills": self.fills,
            "flush_writebacks": self.flush_writebacks,
        }

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}, sets={self.num_sets}, ways={self.ways}, "
            f"hits={self.hits}, misses={self.misses})"
        )
