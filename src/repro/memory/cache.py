"""Set-associative cache with LRU replacement and write-back policy.

Used for PE L1Ds, shared L2s, the sliced LLC, and the BBF victim cache;
as a single set (:func:`fully_associative`) it is also the BBF stream
buffer and the STLB.  Operates on cache-line indices (not byte
addresses); the hot path is a dict-per-set LRU exploiting Python's
insertion-ordered dicts, which keeps the simulator fast enough for
million-access traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import CACHE_LINE_BYTES, CacheConfig

NO_LINE = -1
"""Sentinel in batched eviction arrays: no dirty line evicted."""


def fully_associative(entries: int) -> CacheConfig:
    """Geometry of a one-set LRU structure with ``entries`` ways."""
    if entries < 1:
        raise ValueError("a fully-associative structure needs an entry")
    return CacheConfig(
        size_bytes=entries * CACHE_LINE_BYTES, associativity=entries
    )


def rle_starts(lines: np.ndarray) -> np.ndarray:
    """Indices where a run of consecutive equal values begins.

    Consecutive repeat accesses to one line are guaranteed hits that
    leave the line at MRU, so only the first access of each run can
    change cache state; the repeats contribute hit counts (and their
    dirty bits OR into the run) without being replayed.
    """
    n = lines.shape[0]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(lines[1:], lines[:-1], out=starts[1:])
    return np.flatnonzero(starts)


class Cache:
    """One set-associative, write-back, write-allocate cache."""

    __slots__ = (
        "name", "num_sets", "ways", "_sets", "hits", "misses",
        "writebacks", "fills", "flush_writebacks", "replay_fast_hint",
    )

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.associativity
        # Perf hint for the array replay backend: whether the last
        # array solve on this cache skipped the window walk (every set's
        # distinct stream footprint within the associativity, or a
        # stream of first touches; see replay_array.py).  Starts
        # optimistic; never affects simulated behaviour.
        self.replay_fast_hint = True
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

    def access_many(
        self,
        lines: np.ndarray,
        writes,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`access` over a trace of line indices.

        ``lines`` is an int64 array; ``writes`` is a matching bool array
        or a scalar bool applied to every access.  Returns ``(hits,
        evicted)`` aligned with ``lines``: ``hits[i]`` is the hit/miss
        outcome of access ``i`` and ``evicted[i]`` is the dirty line it
        evicted (``NO_LINE`` if none).  Counters and cache state after
        the call are bit-identical to issuing the same trace through
        :meth:`access` one element at a time.

        The implementation run-length-dedups consecutive same-line
        accesses (guaranteed MRU hits), then partitions the deduped
        trace by set index with one stable argsort so each set's
        subsequence is replayed through its LRU dict in original order.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = lines.shape[0]
        hits_full = np.ones(n, dtype=bool)
        evicted_full = np.full(n, NO_LINE, dtype=np.int64)
        if n == 0:
            return hits_full, evicted_full

        starts = rle_starts(lines)
        m = starts.shape[0]
        u_lines = lines if m == n else lines[starts]
        if np.ndim(writes) == 0:
            u_writes = [bool(writes)] * m
        else:
            w = np.asarray(writes, dtype=bool)
            if m == n:
                u_writes = w.tolist()
            else:
                # Dirty bits OR across each run (hit merge semantics).
                u_writes = np.logical_or.reduceat(w, starts).tolist()

        # Vectorized set partitioning: one stable sort groups the
        # deduped trace by set while preserving per-set access order.
        set_idx = u_lines % self.num_sets
        order = np.argsort(set_idx, kind="stable")
        order_l = order.tolist()
        sets_sorted = set_idx[order].tolist()
        lines_l = u_lines.tolist()

        miss_pos: List[int] = []
        miss_append = miss_pos.append
        ev_l: List[Tuple[int, int]] = []
        ev_append = ev_l.append
        sets = self._sets
        ways = self.ways
        cur_set = -1
        s: Dict[int, bool] = {}
        pop = s.pop
        for pos, j in zip(sets_sorted, order_l):
            if pos != cur_set:
                cur_set = pos
                s = sets[pos]
                pop = s.pop
            line = lines_l[j]
            # Dirty flags are bools, so None is a safe absence sentinel;
            # pop+reinsert performs the LRU move in two dict operations.
            dirty = pop(line, None)
            if dirty is not None:
                s[line] = dirty or u_writes[j]
                continue
            miss_append(j)
            if len(s) >= ways:
                victim = next(iter(s))
                if pop(victim):
                    ev_append((j, victim))
            s[line] = u_writes[j]

        misses = len(miss_pos)
        self.hits += (m - misses) + (n - m)
        self.misses += misses
        self.fills += misses
        self.writebacks += len(ev_l)

        if miss_pos:
            hits_full[starts[np.array(miss_pos, dtype=np.int64)]] = False
        if ev_l:
            ej, ev = zip(*ev_l)
            evicted_full[starts[np.array(ej, dtype=np.int64)]] = ev
        return hits_full, evicted_full

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

    def publish_metrics(self, registry, level: str, unit: str) -> None:
        """Snapshot this cache's counters into a metrics registry as
        ``spade_cache_*_total{level=,unit=}``.  Call once per run: the
        counters are cumulative, so repeated publishing double-counts."""
        for metric, value in (
            ("spade_cache_hits_total", self.hits),
            ("spade_cache_misses_total", self.misses),
            ("spade_cache_writebacks_total", self.writebacks),
            ("spade_cache_fills_total", self.fills),
            ("spade_cache_flush_writebacks_total", self.flush_writebacks),
        ):
            registry.counter(metric, level=level, unit=unit).inc(value)

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}, sets={self.num_sets}, ways={self.ways}, "
            f"hits={self.hits}, misses={self.misses})"
        )
