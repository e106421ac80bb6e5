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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CacheConfig, SpadeConfig, replay_backend_spec
from repro.memory.bbf import BypassBuffer
from repro.memory.cache import NO_LINE, Cache, rle_starts
from repro.memory.dram import DRAMModel
from repro.memory.stats import AccessStats, LevelStats
from repro.memory.tlb import LINES_PER_PAGE, STLB
from repro.obs.ledger import NULL_LEDGER


class ServiceLevel(IntEnum):
    """Where a request was satisfied (ordering = distance from the PE)."""

    L1 = 0
    VICTIM = 1
    BBF = 2
    L2 = 3
    LLC = 4
    DRAM = 5


# -- batched trace encoding ------------------------------------------------
#
# A replayable trace is a pair of parallel int64 arrays (lines, ops).
# Each op packs the access path, the write flag, and a region id so one
# batched call can carry a PE chunk's full interleaved access stream:
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


def encode_op(path: int, is_write: bool, region_id: int) -> int:
    """Pack one trace op (see the bit layout above)."""
    return path | (OP_WRITE if is_write else 0) | (region_id << OP_REGION_SHIFT)


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
    allocates tens of MB of mid-sized temporaries (the concatenated
    trace, the array backend's level solves), which glibc keeps in the
    heap after they are freed; trimming once per epoch keeps the
    process's resident set where per-run replay left it."""
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
        # ledger so the array backend's dispatch audit has somewhere to
        # record; the shared null object keeps unattached systems free.
        self.ledger = NULL_LEDGER
        # Trace-replay backend, resolved once from the registry (see
        # repro.config.register_replay_backend); replay_trace dispatches
        # through it so call sites are backend-agnostic.
        spec = replay_backend_spec(config.replay)
        self._replay_backend = spec.resolve()
        self._replay_whole_epochs = spec.epoch

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

    # -- batched access paths ---------------------------------------------
    #
    # Each *_many method replays a whole trace with vectorized set
    # partitioning inside the per-level caches and produces counters and
    # cache state bit-identical to issuing the trace through the scalar
    # methods one access at a time (the parity suite pins this).  Levels
    # are returned as a uint8 array of ServiceLevel values per access.

    def _dram_read_many(
        self, region_ids: np.ndarray, table: Sequence[Optional[str]]
    ) -> None:
        k = region_ids.shape[0]
        if k == 0:
            return
        self.dram.reads += k
        traffic = self._region_traffic
        counts = np.bincount(region_ids, minlength=len(table)).tolist()
        for rid, c in enumerate(counts):
            name = table[rid]
            if c and name is not None:
                traffic[name] = traffic.get(name, 0) + c

    def _dram_write_many(
        self, region_ids: np.ndarray, table: Sequence[Optional[str]]
    ) -> None:
        k = region_ids.shape[0]
        if k == 0:
            return
        self.dram.writes += k
        traffic = self._region_traffic
        counts = np.bincount(region_ids, minlength=len(table)).tolist()
        for rid, c in enumerate(counts):
            name = table[rid]
            if c and name is not None:
                traffic[name] = traffic.get(name, 0) + c

    def _translate_many(self, group: int, lines: np.ndarray) -> None:
        """STLB translation of a trace's pages, in trace order."""
        self.stlbs[group].access_many(lines // LINES_PER_PAGE, False)

    def _dense_cached_many(
        self,
        pe_id: int,
        group: int,
        lines: np.ndarray,
        writes: np.ndarray,
        region_ids: np.ndarray,
        table: Sequence[Optional[str]],
    ) -> np.ndarray:
        """L1 -> L2 -> LLC -> DRAM for a trace (STLB already consulted).

        The cascade is fused into a single pass over the run-length
        deduped trace: each access walks the levels inline, so a miss
        costs one extra dict transaction per level instead of a separate
        batched replay per level.  The scalar ordering is reproduced
        exactly: for each access, its dirty L1 victim (a write) reaches
        the L2 before the access's own miss fill (a read), and likewise
        at the LLC.
        """
        n = lines.shape[0]
        levels = np.full(n, int(ServiceLevel.L1), dtype=np.uint8)
        if n == 0:
            return levels
        starts = rle_starts(lines)
        m = starts.shape[0]
        u_lines = lines if m == n else lines[starts]
        if np.ndim(writes) == 0:
            all_reads = not bool(writes)
            u_writes = None if all_reads else [True] * m
        elif not (w := np.asarray(writes, dtype=bool)).any():
            all_reads = True
            u_writes = None
        else:
            all_reads = False
            u_writes = (
                w.tolist() if m == n
                else np.logical_or.reduceat(w, starts).tolist()
            )
        lines_l = u_lines.tolist()

        l1 = self.l1s[pe_id]
        l2 = self.l2s[group]
        llc = self.llc
        sets1 = l1._sets
        ns1 = l1.num_sets
        ways1 = l1.ways
        sets2 = l2._sets
        ns2 = l2.num_sets
        ways2 = l2.ways
        sets3 = llc._sets
        ns3 = llc.num_sets
        ways3 = llc.ways

        miss1 = wb1 = 0
        hit2 = miss2 = wb2 = 0
        hit3 = miss3 = wb3 = 0
        lvl2_j: List[int] = []
        lvl2_app = lvl2_j.append
        lvl3_j: List[int] = []
        lvl3_app = lvl3_j.append
        drd_j: List[int] = []
        drd_app = drd_j.append
        dwr_j: List[int] = []
        dwr_app = dwr_j.append

        def spill_llc(v: int, j: int) -> None:
            # Dirty L2 victim written into the LLC (rare path).
            nonlocal hit3, miss3, wb3
            s3 = sets3[v % ns3]
            d3 = s3.pop(v, None)
            if d3 is not None:
                s3[v] = True
                hit3 += 1
                return
            miss3 += 1
            if len(s3) >= ways3:
                if s3.pop(next(iter(s3))):
                    wb3 += 1
                    dwr_app(j)
            s3[v] = True

        def spill_l2(v: int, j: int) -> None:
            # Dirty L1 victim written into the L2 (rare path).
            nonlocal hit2, miss2, wb2
            s2 = sets2[v % ns2]
            d2 = s2.pop(v, None)
            if d2 is not None:
                s2[v] = True
                hit2 += 1
                return
            miss2 += 1
            if len(s2) >= ways2:
                v2 = next(iter(s2))
                if s2.pop(v2):
                    wb2 += 1
                    spill_llc(v2, j)
            s2[v] = True

        # Hot loop: dirty flags are bools, so None is a safe absence
        # sentinel and pop+reinsert performs each LRU move in two dict
        # operations (see Cache.access_many).  All-read traces (the
        # common dense partition when stores ride the stream path) skip
        # the per-access write flag entirely: hits re-insert the dirty
        # bit unchanged and fills allocate clean, so the L2/LLC legs are
        # untouched (spills of pre-existing dirty lines still happen).
        if all_reads:
            for j, line in enumerate(lines_l):
                s1 = sets1[line % ns1]
                d1 = s1.pop(line, None)
                if d1 is not None:
                    s1[line] = d1
                    continue
                miss1 += 1
                if len(s1) >= ways1:
                    victim = next(iter(s1))
                    if s1.pop(victim):
                        wb1 += 1
                        spill_l2(victim, j)
                s1[line] = False
                # Miss fill: L2 read.
                s2 = sets2[line % ns2]
                d2 = s2.pop(line, None)
                if d2 is not None:
                    s2[line] = d2
                    hit2 += 1
                    lvl2_app(j)
                    continue
                miss2 += 1
                if len(s2) >= ways2:
                    v2 = next(iter(s2))
                    if s2.pop(v2):
                        wb2 += 1
                        spill_llc(v2, j)
                s2[line] = False
                # Miss fill: LLC read.
                s3 = sets3[line % ns3]
                d3 = s3.pop(line, None)
                if d3 is not None:
                    s3[line] = d3
                    hit3 += 1
                    lvl3_app(j)
                    continue
                miss3 += 1
                if len(s3) >= ways3:
                    if s3.pop(next(iter(s3))):
                        wb3 += 1
                        dwr_app(j)
                s3[line] = False
                drd_app(j)
        else:
            for j, line, w in zip(range(m), lines_l, u_writes):
                s1 = sets1[line % ns1]
                d1 = s1.pop(line, None)
                if d1 is not None:
                    s1[line] = d1 or w
                    continue
                miss1 += 1
                if len(s1) >= ways1:
                    victim = next(iter(s1))
                    if s1.pop(victim):
                        wb1 += 1
                        spill_l2(victim, j)
                s1[line] = w
                # Miss fill: L2 read.
                s2 = sets2[line % ns2]
                d2 = s2.pop(line, None)
                if d2 is not None:
                    s2[line] = d2
                    hit2 += 1
                    lvl2_app(j)
                    continue
                miss2 += 1
                if len(s2) >= ways2:
                    v2 = next(iter(s2))
                    if s2.pop(v2):
                        wb2 += 1
                        spill_llc(v2, j)
                s2[line] = False
                # Miss fill: LLC read.
                s3 = sets3[line % ns3]
                d3 = s3.pop(line, None)
                if d3 is not None:
                    s3[line] = d3
                    hit3 += 1
                    lvl3_app(j)
                    continue
                miss3 += 1
                if len(s3) >= ways3:
                    if s3.pop(next(iter(s3))):
                        wb3 += 1
                        dwr_app(j)
                s3[line] = False
                drd_app(j)

        l1.hits += (m - miss1) + (n - m)
        l1.misses += miss1
        l1.fills += miss1
        l1.writebacks += wb1
        l2.hits += hit2
        l2.misses += miss2
        l2.fills += miss2
        l2.writebacks += wb2
        llc.hits += hit3
        llc.misses += miss3
        llc.fills += miss3
        llc.writebacks += wb3

        if lvl2_j:
            levels[starts[np.array(lvl2_j)]] = int(ServiceLevel.L2)
        if lvl3_j:
            levels[starts[np.array(lvl3_j)]] = int(ServiceLevel.LLC)
        if drd_j:
            idx = starts[np.array(drd_j)]
            levels[idx] = int(ServiceLevel.DRAM)
            self._dram_read_many(region_ids[idx], table)
        if dwr_j:
            self._dram_write_many(region_ids[starts[np.array(dwr_j)]], table)
        return levels

    def _dense_bypass_many(
        self,
        pe_id: int,
        lines: np.ndarray,
        writes: np.ndarray,
        region_ids: np.ndarray,
        table: Sequence[Optional[str]],
    ) -> np.ndarray:
        """BBF victim cache -> DRAM for a trace (STLB already consulted)."""
        hits, ev = self.bbfs[pe_id].victim.access_many(lines, writes)
        levels = np.full(
            lines.shape[0], int(ServiceLevel.DRAM), dtype=np.uint8
        )
        levels[hits] = int(ServiceLevel.VICTIM)
        self._dram_write_many(region_ids[ev != NO_LINE], table)
        rd = ~hits
        rd &= ~writes
        self._dram_read_many(region_ids[rd], table)
        return levels

    def _stream_many(
        self,
        pe_id: int,
        lines: np.ndarray,
        writes: np.ndarray,
        region_ids: np.ndarray,
        table: Sequence[Optional[str]],
    ) -> np.ndarray:
        """BBF stream buffer -> DRAM for a trace (STLB already consulted)."""
        hits, _ = self.bbfs[pe_id].stream.access_many(lines, writes)
        levels = np.full(
            lines.shape[0], int(ServiceLevel.DRAM), dtype=np.uint8
        )
        levels[hits] = int(ServiceLevel.BBF)
        miss = ~hits
        self._dram_write_many(region_ids[miss & writes], table)
        self._dram_read_many(region_ids[miss & ~writes], table)
        return levels

    def dense_access_many(
        self,
        pe_id: int,
        lines: np.ndarray,
        is_write=False,
        bypass: bool = False,
        region: Optional[str] = None,
    ) -> np.ndarray:
        """Batched :meth:`dense_access` over a trace of line indices.

        ``is_write`` may be a scalar or a per-access bool array.
        Returns the per-access :class:`ServiceLevel` values (uint8).
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        writes = np.empty(lines.shape[0], dtype=bool)
        writes[:] = is_write
        group = self._group_of(pe_id)
        self._translate_many(group, lines)
        region_ids = np.zeros(lines.shape[0], dtype=np.int64)
        table = (region,)
        if bypass:
            return self._dense_bypass_many(
                pe_id, lines, writes, region_ids, table
            )
        return self._dense_cached_many(
            pe_id, group, lines, writes, region_ids, table
        )

    def stream_access_many(
        self,
        pe_id: int,
        lines: np.ndarray,
        is_write=False,
        region: Optional[str] = None,
    ) -> np.ndarray:
        """Batched :meth:`stream_access`; see :meth:`dense_access_many`."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        writes = np.empty(lines.shape[0], dtype=bool)
        writes[:] = is_write
        group = self._group_of(pe_id)
        self._translate_many(group, lines)
        region_ids = np.zeros(lines.shape[0], dtype=np.int64)
        return self._stream_many(
            pe_id, lines, writes, region_ids, (region,)
        )

    def cached_stream_access_many(
        self,
        pe_id: int,
        lines: np.ndarray,
        is_write=False,
        region: Optional[str] = None,
    ) -> np.ndarray:
        """Batched :meth:`cached_stream_access` (pre-CFG4 sparse path)."""
        return self.dense_access_many(
            pe_id, lines, is_write=is_write, bypass=False, region=region
        )

    def replay_trace(
        self,
        pe_id,
        lines: np.ndarray,
        ops: np.ndarray,
        region_names: Sequence[Optional[str]] = TRACE_REGIONS,
    ) -> np.ndarray:
        """Replay one PE's interleaved access trace in a single call,
        dispatching to the backend named by ``config.replay`` (see the
        registry in :mod:`repro.config`).  All backends are
        bit-identical on counters, per-access service levels, and cache
        state; they differ only in speed.

        Epoch backends (``ReplayBackend.epoch``) also accept a list of
        dispatch runs ``(pe, lo, hi)`` as ``pe_id``, each one PE's
        accesses ``lines[lo:hi]``: :meth:`replay_epoch`'s one call for a
        whole epoch."""
        return self._replay_backend(self, pe_id, lines, ops, region_names)

    def replay_epoch(
        self,
        runs: Sequence[Tuple[int, np.ndarray, np.ndarray]],
        region_names: Sequence[Optional[str]] = TRACE_REGIONS,
    ) -> List[np.ndarray]:
        """Replay one epoch's dispatch runs ``(pe_id, lines, ops)`` in
        order; returns each run's per-access service levels.

        Most backends replay the runs one :meth:`replay_trace` call
        each.  An epoch backend gets the whole epoch in one call: the
        runs' traces back to back, with their bounds as the run list,
        which lets the array backend solve every cache once per epoch
        instead of once per run."""
        if not self._replay_whole_epochs:
            return [
                self.replay_trace(pe, lines, ops, region_names)
                for pe, lines, ops in runs
            ]
        if not runs:
            return []
        bounds = np.cumsum([0] + [r[1].shape[0] for r in runs]).tolist()
        table = [
            (int(r[0]), lo, hi) for r, lo, hi in zip(runs, bounds, bounds[1:])
        ]
        if len(runs) == 1:
            lines, ops = runs[0][1], runs[0][2]
        else:
            lines = np.concatenate([r[1] for r in runs])
            ops = np.concatenate([r[2] for r in runs])
        levels = self.replay_trace(table, lines, ops, region_names)
        del lines, ops
        if levels.shape[0] >= TRIM_MIN_EVENTS:
            _release_heap()
        return [levels[lo:hi] for _, lo, hi in table]

    def replay_trace_batched(
        self,
        pe_id: int,
        lines: np.ndarray,
        ops: np.ndarray,
        region_names: Sequence[Optional[str]] = TRACE_REGIONS,
    ) -> np.ndarray:
        """Replay one PE's interleaved access trace in a single call.

        ``ops`` carries per-access path/write/region (see
        :func:`encode_op`).  The trace is translated through the STLB in
        order, then split by path — the three paths touch disjoint cache
        state, so each subsequence replays exactly as it would have
        interleaved — and the per-access service levels are scattered
        back into one array aligned with the input.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        ops = np.ascontiguousarray(ops, dtype=np.int64)
        n = lines.shape[0]
        levels = np.empty(n, dtype=np.uint8)
        if n == 0:
            return levels
        group = self._group_of(pe_id)
        self._translate_many(group, lines)
        path = ops & OP_PATH_MASK
        writes = (ops & OP_WRITE) != 0
        region_ids = ops >> OP_REGION_SHIFT
        for p in (OP_DENSE, OP_DENSE_BYPASS, OP_STREAM):
            mask = path == p
            if not mask.any():
                continue
            sub_lines = lines[mask]
            sub_writes = writes[mask]
            sub_rids = region_ids[mask]
            if p == OP_DENSE:
                sub_levels = self._dense_cached_many(
                    pe_id, group, sub_lines, sub_writes, sub_rids,
                    region_names,
                )
            elif p == OP_DENSE_BYPASS:
                sub_levels = self._dense_bypass_many(
                    pe_id, sub_lines, sub_writes, sub_rids, region_names
                )
            else:
                sub_levels = self._stream_many(
                    pe_id, sub_lines, sub_writes, sub_rids, region_names
                )
            levels[mask] = sub_levels
        return levels

    def replay_trace_scalar(
        self,
        pe_id: int,
        lines: np.ndarray,
        ops: np.ndarray,
        region_names: Sequence[Optional[str]] = TRACE_REGIONS,
    ) -> np.ndarray:
        """Scalar twin of :meth:`replay_trace`: one per-access call per
        trace entry, in trace order.

        This is the chunk hand-off API for ``replay="scalar"`` engines
        whose execution backend buffers chunk traces (the vectorized
        generators): the buffered chunk is handed to the hierarchy as
        one unit, but each access walks the scalar reference paths so
        the cache state transitions are — trivially — the oracle's.
        """
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        ops = np.ascontiguousarray(ops, dtype=np.int64)
        n = lines.shape[0]
        levels = np.empty(n, dtype=np.uint8)
        if n == 0:
            return levels
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

    def publish_metrics(self, registry) -> None:
        """Snapshot every live counter into a metrics registry.

        Emits per-unit series (``spade_cache_*_total{level=,unit=}``,
        STLB and BBF counters per unit, DRAM per direction, per-region
        DRAM lines) plus the level aggregates
        (``spade_level_{hits,misses,writebacks}_total{level=}``), which
        are definitionally equal to :meth:`collect_stats` — the
        telemetry golden test pins that equality.  Call once per run on
        a registry that hasn't seen this system before.
        """
        if not registry.enabled:
            return
        for i, l1 in enumerate(self.l1s):
            l1.publish_metrics(registry, level="l1", unit=f"pe{i}")
        for g, l2 in enumerate(self.l2s):
            l2.publish_metrics(registry, level="l2", unit=f"group{g}")
        self.llc.publish_metrics(registry, level="llc", unit="llc")
        for i, bbf in enumerate(self.bbfs):
            bbf.victim.publish_metrics(
                registry, level="victim", unit=f"pe{i}"
            )
            unit = f"pe{i}"
            registry.counter(
                "spade_bbf_stream_hits_total", unit=unit
            ).inc(bbf.stream.hits)
            registry.counter(
                "spade_bbf_stream_misses_total", unit=unit
            ).inc(bbf.stream.misses)
            registry.counter(
                "spade_bbf_writebacks_total", unit=unit
            ).inc(bbf.stream.writebacks)
        for g, stlb in enumerate(self.stlbs):
            unit = f"group{g}"
            registry.counter(
                "spade_stlb_hits_total", unit=unit
            ).inc(stlb.hits)
            registry.counter(
                "spade_stlb_misses_total", unit=unit
            ).inc(stlb.misses)
        registry.counter("spade_dram_lines_total", op="read").inc(
            self.dram.reads
        )
        registry.counter("spade_dram_lines_total", op="write").inc(
            self.dram.writes
        )
        for region, lines in sorted(self._region_traffic.items()):
            registry.counter(
                "spade_dram_region_lines_total", region=region
            ).inc(lines)
        stats = self.collect_stats()
        for level, s in (
            ("l1", stats.l1), ("l2", stats.l2), ("llc", stats.llc),
            ("victim", stats.victim), ("bbf_stream", stats.bbf_stream),
        ):
            registry.counter(
                "spade_level_hits_total", level=level
            ).inc(s.hits)
            registry.counter(
                "spade_level_misses_total", level=level
            ).inc(s.misses)
            registry.counter(
                "spade_level_writebacks_total", level=level
            ).inc(s.writebacks)
        registry.counter("spade_flushed_dirty_lines_total").inc(
            stats.flushed_dirty_lines
        )

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
        stats.by_region = dict(self._region_traffic)
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
            "region_traffic": dict(self._region_traffic),
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


# -- registry-facing backend entry points ----------------------------------
#
# The replay registry in repro.config references these by dotted path;
# they exist so backends are plain callables with one uniform signature
# (memory_system, pe_id, lines, ops, region_names) regardless of where
# the implementation lives (methods here, modules elsewhere).


def replay_backend_scalar(
    ms: "MemorySystem",
    pe_id: int,
    lines: np.ndarray,
    ops: np.ndarray,
    region_names: Sequence[Optional[str]] = TRACE_REGIONS,
) -> np.ndarray:
    """``replay="scalar"``: the per-access reference oracle."""
    return ms.replay_trace_scalar(pe_id, lines, ops, region_names)


def replay_backend_batched(
    ms: "MemorySystem",
    pe_id: int,
    lines: np.ndarray,
    ops: np.ndarray,
    region_names: Sequence[Optional[str]] = TRACE_REGIONS,
) -> np.ndarray:
    """``replay="batched"``: the fused per-set dict-walk fast path."""
    return ms.replay_trace_batched(pe_id, lines, ops, region_names)
