"""Epoch-grain trace replay: the ``replay="array"`` backend.

An epoch's dispatch runs ``(pe, lo, hi)``, which tile its trace in
order, replay in one compiled call, ``repro_replay_epoch``
(``repro/native/replay_epoch.c``).  Every LRU structure of the
hierarchy walks once over its own event stream: each group's STLB over
its PEs' pages, each PE's L1 over its dense-cached accesses, each L2
group over its PEs' L1 events merged along the runs, the LLC over every
group's L2 events merged the same way, and each PE's BBF stream buffer
and victim cache over their own accesses.  The call reads the resident
sets its walks touch, writes them back once it has succeeded, and
returns the per-access service levels, every structure's counters and
the DRAM traffic per region; DESIGN.md section 10 argues that this is
the scalar oracle's result.

Without the compiled library each run replays through
:meth:`MemorySystem.replay_trace_scalar`, the oracle itself.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.memory.hierarchy import TRACE_REGIONS, MemorySystem


def _run_table(ms: MemorySystem, pe_id, n: int) -> List[Tuple[int, int, int]]:
    """The normalised run table of an ``n``-access trace: ``pe_id`` as
    runs ``(pe, lo, hi)`` that tile ``[0, n)`` in order, with empty runs
    dropped and consecutive runs of one PE joined.  Raises
    ``ValueError`` on a PE outside the system or on runs that do not
    tile the trace (a gap, an overlap, a run out of order or short of
    ``n``): the run merges read trace order off the table."""
    table = [(pe_id, 0, n)] if np.ndim(pe_id) == 0 else pe_id
    num_pes = ms.config.num_pes
    runs: List[Tuple[int, int, int]] = []
    end = 0
    for i, (p, lo, hi) in enumerate(table):
        if not 0 <= p < num_pes:
            raise ValueError(f"run {i}: PE {p} is not in 0..{num_pes - 1}")
        if lo != end:
            raise ValueError(f"run {i} starts at {lo}, not at {end}")
        if hi < lo:
            raise ValueError(f"run {i} ends at {hi}, before its start {lo}")
        end = hi
        if hi == lo:
            continue
        if runs and runs[-1][0] == p:
            runs[-1] = (int(p), runs[-1][1], int(hi))
        else:
            runs.append((int(p), int(lo), int(hi)))
    if end != n:
        raise ValueError(f"the runs end at {end}, the trace at {n}")
    return runs


def _as_int64(name: str, arr) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"{name} must be an integer array, not {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int64)


def replay_trace_array(
    ms: MemorySystem,
    pe_id,
    lines: np.ndarray,
    ops: np.ndarray,
    region_names: Sequence[Optional[str]] = TRACE_REGIONS,
) -> np.ndarray:
    """``replay="array"`` entry point.  ``pe_id`` is one PE, or an
    epoch's dispatch runs ``(pe, lo, hi)`` over ``lines``/``ops``.

    The inputs are checked before anything is replayed: the run table
    (:func:`_run_table`), integer ``lines`` and ``ops`` of one length,
    no negative line, and ops on the three paths with region ids inside
    ``region_names``.  A rejected epoch, or a compiled call that fails,
    raises with every cache, counter and DRAM field as it was."""
    lines = _as_int64("lines", lines)
    ops = _as_int64("ops", ops)
    n = lines.shape[0]
    runs = _run_table(ms, pe_id, n)
    native.check_replay_epoch(lines, ops, len(region_names))
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    kernel = native.replay_epoch_kernel()
    if kernel is None:
        levels = np.empty(n, dtype=np.uint8)
        for p, lo, hi in runs:
            levels[lo:hi] = ms.replay_trace_scalar(
                p, lines[lo:hi], ops[lo:hi], region_names
            )
        return levels

    result = kernel(
        ms, lines, ops, np.array(runs, dtype=np.int64).reshape(-1, 3),
        len(region_names),
    )
    for cache, hits, misses, writebacks in result.counters:
        cache.hits += hits
        cache.misses += misses
        cache.fills += misses
        cache.writebacks += writebacks
    ms.dram.reads += result.dram_reads
    ms.dram.writes += result.dram_writes
    traffic = ms._region_traffic
    for region, count in result.traffic:
        name = region_names[region]
        if name:  # as the oracle's _dram_read and _dram_write
            traffic[name] = traffic.get(name, 0) + count
    ledger = ms.ledger
    if ledger.enabled:
        for level, cache, events, ns in result.walks:
            ledger.emit(
                "dispatch", cache=cache.name, level=level, events=events,
                chosen="native", measured_us=ns / 1e3,
            )
    return result.levels
