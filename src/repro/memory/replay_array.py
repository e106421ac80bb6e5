"""Epoch-grain trace replay: the ``replay="array"`` backend.

An epoch's dispatch runs ``(pe, lo, hi)``, which tile its trace in
order, replay in one compiled call, ``repro_replay_epoch``
(``repro/native/replay_epoch.c``), which reads each run's arrays in
place.  Every LRU structure of the hierarchy walks once over its own
event stream: each group's STLB over its PEs' pages, each PE's L1 over
its dense-cached accesses, each L2 group over its PEs' L1 events merged
along the runs, the LLC over every group's L2 events merged the same
way, and each PE's BBF stream buffer and victim cache over their own
accesses.  The residents stay in the structures' compiled states from
one epoch to the next; the call returns the per-access service levels,
every structure's counters and the DRAM traffic per region; DESIGN.md
section 10 argues that this is the scalar oracle's result.

Without the compiled library each run replays through
:meth:`MemorySystem.replay_trace_scalar`, the oracle itself.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.memory.hierarchy import TRACE_REGIONS, MemorySystem, TraceParts

Run = Tuple[int, np.ndarray, np.ndarray]


def _run_table(ms: MemorySystem, pe_id, n: int) -> List[Tuple[int, int, int]]:
    """The run table of an ``n``-access trace: ``pe_id`` as runs ``(pe,
    lo, hi)`` that tile ``[0, n)`` in order.  Raises ``ValueError`` on a
    PE outside the system or on runs that do not tile the trace (a gap,
    an overlap, a run out of order or short of ``n``): the run merges
    read trace order off the table."""
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
        runs.append((int(p), int(lo), int(hi)))
    if end != n:
        raise ValueError(f"the runs end at {end}, the trace at {n}")
    return runs


def _as_int64(name: str, arr) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.dtype.kind not in "iu":
        raise TypeError(f"{name} must be an integer array, not {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _checked_runs(
    ms: MemorySystem, pe_id, lines, ops, n_regions: int
) -> Tuple[int, List[Run]]:
    """The replay's total accesses and its non-empty runs ``(pe, lines,
    ops)``, every input checked once: integer arrays (``TypeError``),
    the run table (:func:`_run_table`), and each array pair as
    :func:`repro.native.check_replay_epoch` requires.  Trace ``lines``
    and ``ops`` are either one array each, cut by the run table, or
    :class:`TraceParts` holding one array per run."""
    if isinstance(lines, TraceParts) or isinstance(ops, TraceParts):
        if not (isinstance(lines, TraceParts) and isinstance(ops, TraceParts)
                and len(lines.parts) == len(ops.parts)):
            raise ValueError("lines and ops must hold the same runs' parts")
        line_parts = [_as_int64("lines", a) for a in lines.parts]
        op_parts = [_as_int64("ops", a) for a in ops.parts]
        n = sum(a.shape[0] for a in line_parts)
        table = _run_table(ms, pe_id, n)
        if len(table) != len(line_parts) or any(
            hi - lo != a.shape[0] for (_, lo, hi), a in zip(table, line_parts)
        ):
            raise ValueError("the run table does not match the runs' parts")
        if n >= 2**31:
            raise ValueError(f"{n} accesses do not fit one replay")
        for part_lines, part_ops in zip(line_parts, op_parts):
            native.check_replay_epoch(part_lines, part_ops, n_regions)
        pairs = zip(line_parts, op_parts)
    else:
        lines = _as_int64("lines", lines)
        ops = _as_int64("ops", ops)
        n = lines.shape[0]
        table = _run_table(ms, pe_id, n)
        native.check_replay_epoch(lines, ops, n_regions)
        pairs = ((lines[lo:hi], ops[lo:hi]) for _, lo, hi in table)
    return n, [
        (p, part_lines, part_ops)
        for (p, lo, hi), (part_lines, part_ops) in zip(table, pairs)
        if hi > lo
    ]


def replay_trace_array(
    ms: MemorySystem,
    pe_id,
    lines,
    ops,
    region_names: Sequence[Optional[str]] = TRACE_REGIONS,
) -> np.ndarray:
    """``replay="array"`` entry point.  ``pe_id`` is one PE, or an
    epoch's dispatch runs ``(pe, lo, hi)`` over ``lines``/``ops`` (one
    array each, or :class:`TraceParts` of one array per run).

    The inputs are checked before anything is replayed
    (:func:`_checked_runs`): the run table, integer ``lines`` and
    ``ops`` of one length, no negative line, and ops on the three paths
    with region ids inside ``region_names``.  A rejected epoch, or a
    compiled call that fails, raises with every cache, counter and DRAM
    field as it was."""
    n, runs = _checked_runs(ms, pe_id, lines, ops, len(region_names))
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    kernel = native.replay_epoch_kernel()
    if kernel is None:
        levels = np.empty(n, dtype=np.uint8)
        lo = 0
        for p, part_lines, part_ops in runs:
            hi = lo + part_lines.shape[0]
            levels[lo:hi] = ms.replay_trace_scalar(
                p, part_lines, part_ops, region_names
            )
            lo = hi
        return levels

    result = kernel(ms, runs, len(region_names))
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
