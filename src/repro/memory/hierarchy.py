"""The composed memory system: per-PE L1+BBF, shared L2s, LLC, DRAM.

Topology (Figure 3 / Table 1): every PE has a private L1D and a Bypass
Buffer (stream buffer + victim cache).  Groups of ``pes_per_l2`` PEs
share one L2 and one STLB (the host core's).  All PEs share a single
logical LLC (the union of the slices) and DRAM.

Three access paths, matching Section 5.2:

- ``dense_access(bypass=False)``: L1 -> L2 -> LLC -> DRAM, write-back /
  write-allocate at each level;
- ``dense_access(bypass=True)``: BBF victim cache -> DRAM (no cache
  pollution, but spills go straight to memory);
- ``stream_access``: BBF stream buffer -> DRAM, used for the sparse
  input stream and SDDMM output (CFG4+).  Before CFG4 the sparse stream
  goes through the caches instead (``cached_stream_access``).
"""

from __future__ import annotations

import ctypes
from enum import IntEnum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CacheConfig, SpadeConfig
from repro.memory.bbf import BypassBuffer
from repro.memory.cache import Cache
from repro.memory.dram import DRAMModel
from repro.memory.stats import AccessStats, LevelStats
from repro.memory.tlb import STLB
from repro.obs.ledger import NULL_LEDGER


class ServiceLevel(IntEnum):
    """Where a request was satisfied (ordering = distance from the PE)."""

    L1 = 0
    VICTIM = 1
    BBF = 2
    L2 = 3
    LLC = 4
    DRAM = 5


# -- trace encoding ------------------------------------------------------
#
# A replayable trace is a pair of parallel int64 arrays (lines, ops).
# Each op packs the access path, the write flag, and a region id so one
# replay call can carry a PE chunk's full interleaved access stream:
#
#   bits 0-1  path (dense-cached / dense-bypass / stream)
#   bit  2    is_write
#   bits 3+   region id (index into the region-name table)

OP_DENSE = 0
OP_DENSE_BYPASS = 1
OP_STREAM = 2
OP_PATH_MASK = 0x3
OP_WRITE = 0x4
OP_REGION_SHIFT = 3

TRACE_REGIONS: Tuple[Optional[str], ...] = (
    "sparse", "rmatrix", "cmatrix", "sparse_out",
)
"""Default region-name table for :meth:`MemorySystem.replay_trace`."""


SPARSE_REGION = TRACE_REGIONS.index("sparse")
"""The region id whose accesses :func:`level_tally` counts as sparse."""


def encode_op(path: int, is_write: bool, region_id: int) -> int:
    """Pack one trace op (see the bit layout above)."""
    return path | (OP_WRITE if is_write else 0) | (region_id << OP_REGION_SHIFT)


def level_tally(levels: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """One run's service levels folded into the PE's per-level tallies:
    a ``(3, len(ServiceLevel))`` int64 array of dense reads (accesses
    that neither write nor lie in :data:`SPARSE_REGION`), stores (every
    write) and sparse accesses (every access in the region; a sparse
    write counts as a store too) by level.  The reference fold; the
    compiled epoch replay's fold is held to it."""
    n_levels = len(ServiceLevel)
    key = levels.astype(np.int64)
    key += ((ops & OP_WRITE) != 0) * n_levels
    key += ((ops >> OP_REGION_SHIFT) == SPARSE_REGION) * (2 * n_levels)
    # Rows: plain reads, plain writes, sparse reads, sparse writes.
    c = np.bincount(key, minlength=4 * n_levels).reshape(4, n_levels)
    return np.stack([c[0], c[1] + c[3], c[2] + c[3]])


class TraceParts:
    """One array of an epoch's trace (its lines or its ops) held as its
    dispatch runs' arrays, which the compiled replay reads in place:
    the concatenation it stands for is built only when something asks
    for it as an array (``np.asarray``)."""

    __slots__ = ("parts", "shape")

    def __init__(self, parts: Sequence[np.ndarray]) -> None:
        self.parts = list(parts)
        self.shape = (sum(int(a.shape[0]) for a in self.parts),)

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        whole = (
            np.concatenate(self.parts) if self.parts
            else np.empty(0, dtype=np.int64)
        )
        return whole if dtype is None else whole.astype(dtype, copy=False)


TRIM_MIN_EVENTS = 1 << 16
"""Epochs of at least this many accesses hand their freed replay
temporaries back to the OS (see :func:`_release_heap`)."""


def _load_malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim  # the process's own libc
    except (OSError, AttributeError):
        return None  # not glibc: freed memory stays with the allocator


_malloc_trim = _load_malloc_trim()


def _release_heap() -> None:
    """Return freed heap pages to the OS.  Replaying an epoch at once
    allocates tens of MB of mid-sized temporaries (inside the compiled
    replay each level's emission buffers, the deduped streams and the
    run-order merges), which glibc keeps in the heap after they are
    freed.  Trimming once per epoch keeps peak RSS down: on perfbench's
    engine-spmm-rmat workload (2-vCPU x86-64 host, seed 3), 271 MB with
    the trim against 303 MB without it."""
    if _malloc_trim is not None:
        _malloc_trim(0)


class MemorySystem:
    """One SPADE system's full memory hierarchy."""

    def __init__(self, config: SpadeConfig) -> None:
        self.config = config
        n = config.num_pes
        group = config.memory.pes_per_l2
        self.num_groups = max(1, -(-n // group))
        self.l1s: List[Cache] = [
            Cache(config.pe.l1d, name=f"l1[{i}]") for i in range(n)
        ]
        self.bbfs: List[BypassBuffer] = [
            BypassBuffer(
                config.pe.bbf_entries, config.pe.victim_cache,
                name=f"bbf[{i}]",
            )
            for i in range(n)
        ]
        self.l2s: List[Cache] = [
            Cache(config.memory.l2, name=f"l2[{g}]")
            for g in range(self.num_groups)
        ]
        self.stlbs: List[STLB] = [
            STLB(name=f"stlb[{g}]") for g in range(self.num_groups)
        ]
        llc_cfg = CacheConfig(
            size_bytes=config.memory.llc_slice.size_bytes
            * config.memory.num_llc_slices,
            associativity=config.memory.llc_slice.associativity,
            line_bytes=config.memory.llc_slice.line_bytes,
        )
        self.llc = Cache(llc_cfg, name="llc")
        self.dram = DRAMModel.from_config(config.memory)
        self._region_traffic: dict = {}
        # Run-ledger attachment point: the engine swaps in its session
        # ledger so the array backend's per-level dispatch events have
        # somewhere to record; the shared null object keeps unattached
        # systems free.
        self.ledger = NULL_LEDGER
        # Trace-replay backend; replay_trace dispatches through it so
        # call sites are backend-agnostic.
        if config.replay == "scalar":
            self._replay_backend = MemorySystem.replay_trace_scalar
        else:
            from repro.memory.replay_array import replay_trace_array

            self._replay_backend = replay_trace_array

    # -- helpers ----------------------------------------------------------

    def _group_of(self, pe_id: int) -> int:
        return pe_id // self.config.memory.pes_per_l2

    def _dram_read(self, region: Optional[str]) -> None:
        self.dram.read_line()
        if region:
            self._region_traffic[region] = (
                self._region_traffic.get(region, 0) + 1
            )

    def _dram_write(self, region: Optional[str] = None) -> None:
        self.dram.write_line()
        if region:
            self._region_traffic[region] = (
                self._region_traffic.get(region, 0) + 1
            )

    # -- access paths -----------------------------------------------------

    def dense_access(
        self,
        pe_id: int,
        line: int,
        is_write: bool = False,
        bypass: bool = False,
        region: Optional[str] = None,
    ) -> ServiceLevel:
        """One dense-matrix line access from a PE; returns service level."""
        group = self._group_of(pe_id)
        self.stlbs[group].translate_line(line)
        if bypass:
            hit, evicted = self.bbfs[pe_id].victim.access(line, is_write)
            if evicted is not None:
                self._dram_write(region)
            if hit:
                return ServiceLevel.VICTIM
            if not is_write:
                self._dram_read(region)
            return ServiceLevel.DRAM

        hit, evicted = self.l1s[pe_id].access(line, is_write)
        if evicted is not None:
            # Dirty L1 eviction updates the L2 copy.
            _, l2_evicted = self.l2s[group].access(evicted, is_write=True)
            if l2_evicted is not None:
                _, llc_evicted = self.llc.access(l2_evicted, is_write=True)
                if llc_evicted is not None:
                    self._dram_write(region)
        if hit:
            return ServiceLevel.L1
        return self._fill_from_l2(group, line, region)

    def _fill_from_l2(
        self, group: int, line: int, region: Optional[str]
    ) -> ServiceLevel:
        hit, evicted = self.l2s[group].access(line, is_write=False)
        if evicted is not None:
            _, llc_evicted = self.llc.access(evicted, is_write=True)
            if llc_evicted is not None:
                self._dram_write(region)
        if hit:
            return ServiceLevel.L2
        hit, llc_evicted = self.llc.access(line, is_write=False)
        if llc_evicted is not None:
            self._dram_write(region)
        if hit:
            return ServiceLevel.LLC
        self._dram_read(region)
        return ServiceLevel.DRAM

    def stream_access(
        self,
        pe_id: int,
        line: int,
        is_write: bool = False,
        region: Optional[str] = None,
    ) -> ServiceLevel:
        """Streaming access through the BBF stream buffer (bypasses all
        caches).  Used for the sparse input and the SDDMM output."""
        group = self._group_of(pe_id)
        self.stlbs[group].translate_line(line)
        if self.bbfs[pe_id].stream.access(line, is_write)[0]:
            return ServiceLevel.BBF
        if is_write:
            # Write-allocate in the stream buffer; the line goes out to
            # DRAM when evicted or flushed, but we account it now so the
            # traffic total is independent of flush timing (a dirty
            # stream-buffer victim only counts as a writeback).
            self._dram_write(region)
        else:
            self._dram_read(region)
        return ServiceLevel.DRAM

    def cached_stream_access(
        self,
        pe_id: int,
        line: int,
        is_write: bool = False,
        region: Optional[str] = None,
    ) -> ServiceLevel:
        """Sparse-stream access through the normal cache path — the
        pre-CFG4 behaviour whose pollution CFG4 eliminates (Table 4)."""
        return self.dense_access(
            pe_id, line, is_write=is_write, bypass=False, region=region
        )

    def replay_trace(
        self,
        pe_id,
        lines: np.ndarray,
        ops: np.ndarray,
        region_names: Sequence[Optional[str]] = TRACE_REGIONS,
        tally: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Replay an interleaved access trace in a single call through
        the ``config.replay`` backend: :meth:`replay_trace_scalar` (the
        oracle) or :func:`repro.memory.replay_array.replay_trace_array`.
        Both are bit-identical on counters, per-access service levels
        and cache state; they differ only in speed.

        The array backend also accepts a list of dispatch runs
        ``(pe, lo, hi)`` as ``pe_id``, each one PE's accesses
        ``lines[lo:hi]``: :meth:`replay_epoch`'s one call for a whole
        epoch, which is one compiled call for the whole hierarchy.

        ``tally``, when given, is a ``(PEs, 3, len(ServiceLevel))``
        int64 array: the levels of each PE's accesses are added into its
        row as :func:`level_tally` counts them."""
        return self._replay_backend(
            self, pe_id, lines, ops, region_names, tally
        )

    def replay_epoch(
        self,
        runs: Sequence[Tuple[int, np.ndarray, np.ndarray]],
        region_names: Sequence[Optional[str]] = TRACE_REGIONS,
        tally: Optional[np.ndarray] = None,
    ) -> List[np.ndarray]:
        """Replay one epoch's dispatch runs ``(pe_id, lines, ops)`` in
        order; returns each run's per-access service levels.

        The scalar oracle replays the runs one :meth:`replay_trace` call
        each.  The array backend gets the whole epoch in one call, the
        runs' arrays as :class:`TraceParts` with their bounds as the run
        list, so every cache walks once per epoch instead of once per
        run, all inside one compiled call that reads the runs in place.

        ``tally``, when given, is a ``(PEs, 3, len(ServiceLevel))``
        int64 array: each run's levels are added into its PE's row as
        :func:`level_tally` counts them, inside the :meth:`replay_trace`
        call (in the compiled replay where the array backend's library
        loads)."""
        if self.config.replay == "scalar":
            return [
                self.replay_trace(pe, lines, ops, region_names, tally)
                for pe, lines, ops in runs
            ]
        if not runs:
            return []
        runs = [
            (int(pe), np.asarray(lines), np.asarray(ops))
            for pe, lines, ops in runs
        ]
        bounds = np.cumsum([0] + [r[1].shape[0] for r in runs]).tolist()
        table = [
            (r[0], lo, hi) for r, lo, hi in zip(runs, bounds, bounds[1:])
        ]
        whole = self.replay_trace(
            table, TraceParts([r[1] for r in runs]),
            TraceParts([r[2] for r in runs]), region_names, tally,
        )
        if whole.shape[0] >= TRIM_MIN_EVENTS:
            _release_heap()
        return [whole[lo:hi] for _, lo, hi in table]

    def replay_trace_scalar(
        self,
        pe_id: int,
        lines: np.ndarray,
        ops: np.ndarray,
        region_names: Sequence[Optional[str]] = TRACE_REGIONS,
        tally: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Scalar twin of :meth:`replay_trace`: one per-access call per
        trace entry, in trace order; with ``tally``, the levels are
        then added into row ``pe_id`` by :func:`level_tally`.

        This is how a ``replay="scalar"`` engine under
        ``execution="vectorized"`` replays each dispatch run of an
        epoch: the run's generated trace is handed to the hierarchy as
        one unit, but each access walks the scalar reference paths so
        the cache state transitions are — trivially — the oracle's.
        (``execution="scalar"`` never calls it: the oracle issues every
        access as its VRF walk makes it.)
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        ops = np.ascontiguousarray(ops, dtype=np.int64)
        n = lines.shape[0]
        levels = np.empty(n, dtype=np.uint8)
        if n == 0:
            return levels  # nothing to tally
        dense = self.dense_access
        stream = self.stream_access
        for i, (line, op) in enumerate(zip(lines.tolist(), ops.tolist())):
            w = bool(op & OP_WRITE)
            path = op & OP_PATH_MASK
            region = region_names[op >> OP_REGION_SHIFT]
            if path == OP_STREAM:
                levels[i] = stream(pe_id, line, w, region=region)
            else:
                levels[i] = dense(
                    pe_id, line, w,
                    bypass=(path == OP_DENSE_BYPASS), region=region,
                )
        if tally is not None:
            tally[pe_id] += level_tally(levels, ops)
        return levels

    # -- maintenance --------------------------------------------------------

    def flush_pe(self, pe_id: int) -> int:
        """Write back and invalidate one PE's L1 and BBF (SPADE -> CPU
        transition, Section 4.1).  Returns lines written back."""
        dirty = self.l1s[pe_id].flush()
        dirty += self.bbfs[pe_id].flush()
        return dirty

    def flush_all(self) -> int:
        total = sum(self.flush_pe(i) for i in range(len(self.l1s)))
        for l2 in self.l2s:
            total += l2.flush()
        total += self.llc.flush()
        return total

    # -- latency ------------------------------------------------------------

    def latency_ns(self, level: ServiceLevel) -> float:
        """Average round-trip latency to a service level, including the
        PE <-> memory-controller link latency (LL) for levels beyond the
        private structures (Section 7.B)."""
        mem = self.config.memory
        if level == ServiceLevel.L1:
            return mem.l1_latency_ns
        if level in (ServiceLevel.VICTIM, ServiceLevel.BBF):
            return mem.l1_latency_ns  # small private SRAM, L1-like
        if level == ServiceLevel.L2:
            return mem.l2_latency_ns
        if level == ServiceLevel.LLC:
            return mem.llc_latency_ns + mem.link_latency_ns
        return mem.dram_latency_ns + mem.link_latency_ns

    # -- statistics -----------------------------------------------------------

    def unit_stats(self) -> List[Tuple[str, str, Dict[str, int]]]:
        """Every unit's live counters as ``(level, unit, counters)``
        rows: the L1s, victim caches and BBF stream buffers per PE, the
        L2s and STLBs per group, the LLC.  :meth:`collect_stats` is
        their per-level sum; the metrics export reads both."""
        rows = [
            ("l1", f"pe{i}", l1.counters()) for i, l1 in enumerate(self.l1s)
        ]
        rows += [
            ("l2", f"group{g}", l2.counters())
            for g, l2 in enumerate(self.l2s)
        ]
        rows.append(("llc", "llc", self.llc.counters()))
        for i, bbf in enumerate(self.bbfs):
            rows.append(("victim", f"pe{i}", bbf.victim.counters()))
            rows.append(("bbf", f"pe{i}", bbf.stream.counters()))
        rows += [
            ("stlb", f"group{g}", stlb.counters())
            for g, stlb in enumerate(self.stlbs)
        ]
        return rows

    def collect_stats(self) -> AccessStats:
        """Aggregate the live counters into one AccessStats snapshot."""
        stats = AccessStats()
        for l1 in self.l1s:
            stats.l1 = stats.l1.merged(
                LevelStats(l1.hits, l1.misses, l1.writebacks)
            )
        for l2 in self.l2s:
            stats.l2 = stats.l2.merged(
                LevelStats(l2.hits, l2.misses, l2.writebacks)
            )
        stats.llc = LevelStats(
            self.llc.hits, self.llc.misses, self.llc.writebacks
        )
        for bbf in self.bbfs:
            stats.victim = stats.victim.merged(
                LevelStats(
                    bbf.victim.hits, bbf.victim.misses,
                    bbf.victim.writebacks,
                )
            )
            s = bbf.stream
            stats.bbf_stream = stats.bbf_stream.merged(
                LevelStats(s.hits, s.misses, s.writebacks)
            )
        stats.dram_reads = self.dram.reads
        stats.dram_writes = self.dram.writes
        stats.stlb_misses = sum(t.misses for t in self.stlbs)
        stats.by_region = dict(sorted(self._region_traffic.items()))
        stats.flushed_dirty_lines = (
            sum(l1.flush_writebacks for l1 in self.l1s)
            + sum(l2.flush_writebacks for l2 in self.l2s)
            + self.llc.flush_writebacks
            + sum(
                b.stream.flush_writebacks + b.victim.flush_writebacks
                for b in self.bbfs
            )
        )
        return stats

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete hierarchy state for epoch-granular checkpoints:
        every cache's LRU contents and counters, BBF stream buffers,
        STLB residency, DRAM traffic, and per-region traffic."""
        return {
            "l1s": [c.state_dict() for c in self.l1s],
            "bbfs": [b.state_dict() for b in self.bbfs],
            "l2s": [c.state_dict() for c in self.l2s],
            "stlbs": [t.state_dict() for t in self.stlbs],
            "llc": self.llc.state_dict(),
            "dram": self.dram.state_dict(),
            "region_traffic": dict(sorted(self._region_traffic.items())),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot taken on an identically
        configured system (the checkpoint layer verifies the config
        fingerprint before calling this)."""
        for key, units in (("l1s", self.l1s), ("bbfs", self.bbfs),
                           ("l2s", self.l2s), ("stlbs", self.stlbs)):
            if len(state[key]) != len(units):
                raise ValueError(
                    f"snapshot has {len(state[key])} {key}, system has "
                    f"{len(units)}"
                )
            for unit, sub in zip(units, state[key]):
                unit.load_state_dict(sub)
        self.llc.load_state_dict(state["llc"])
        self.dram.load_state_dict(state["dram"])
        self._region_traffic = dict(state["region_traffic"])

    def reset_stats(self) -> None:
        for l1 in self.l1s:
            l1.reset_stats()
        for l2 in self.l2s:
            l2.reset_stats()
        self.llc.reset_stats()
        for bbf in self.bbfs:
            bbf.reset_stats()
        for stlb in self.stlbs:
            stlb.reset_stats()
        self.dram.reset_stats()
        self._region_traffic.clear()
