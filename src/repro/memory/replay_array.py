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
one epoch to the next; the call checks the runs' lines and ops in the
pass that counts them, and returns the per-access service levels, every
structure's counters and the DRAM traffic per region, with each PE's
per-level tallies added into the caller's array; DESIGN.md section 10
argues that this is the scalar oracle's result.

Without the compiled library each run replays through
:meth:`MemorySystem.replay_trace_scalar`, the oracle itself.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.memory.hierarchy import (
    TRACE_REGIONS,
    MemorySystem,
    ServiceLevel,
    TraceParts,
)

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
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D")
    return np.ascontiguousarray(arr, dtype=np.int64)


def _checked_runs(
    ms: MemorySystem, pe_id, lines, ops, tally
) -> Tuple[int, List[Run]]:
    """The replay's total accesses and its non-empty runs ``(pe, lines,
    ops)``, every input's form checked before anything replays: integer
    arrays (``TypeError``), the run table (:func:`_run_table`), lines
    and ops of one length, fewer than ``2**31`` accesses, and a
    ``tally`` that is ``None`` or a C-contiguous, writeable int64
    ``(PEs, 3, len(ServiceLevel))`` array.  The values of the lines and
    ops are checked by the compiled replay, or by
    :func:`repro.native._trace_refusal` without it.  Trace ``lines``
    and ``ops`` are either one array each, cut by the run table, or
    :class:`TraceParts` holding one array per run."""
    if tally is not None:
        native._require("tally", tally, np.int64, 3)
        want = (ms.config.num_pes, 3, len(ServiceLevel))
        if tally.shape != want or not tally.flags.writeable:
            raise ValueError(f"tally must be a writeable {want} array")
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
        if any(a.shape != b.shape for a, b in zip(line_parts, op_parts)):
            raise ValueError("lines and ops differ in length")
        pairs = zip(line_parts, op_parts)
    else:
        lines = _as_int64("lines", lines)
        ops = _as_int64("ops", ops)
        if lines.shape != ops.shape:
            raise ValueError("lines and ops differ in length")
        n = lines.shape[0]
        table = _run_table(ms, pe_id, n)
        pairs = ((lines[lo:hi], ops[lo:hi]) for _, lo, hi in table)
    if n >= 2**31:
        raise ValueError(f"{n} accesses do not fit one replay")
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
    tally: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``replay="array"`` entry point.  ``pe_id`` is one PE, or an
    epoch's dispatch runs ``(pe, lo, hi)`` over ``lines``/``ops`` (one
    array each, or :class:`TraceParts` of one array per run).  With
    ``tally``, each run's service levels are added into its PE's row as
    :func:`repro.memory.hierarchy.level_tally` counts them.

    Everything is checked before anything is replayed: the forms
    (:func:`_checked_runs`), then no negative line and ops on the three
    paths with region ids inside ``region_names``, the first failing
    run's failure raised (:data:`repro.native._TRACE_REFUSALS`).  A
    rejected epoch, or a compiled call that fails, raises with every
    cache, counter, DRAM field and the tally as they were."""
    n, runs = _checked_runs(ms, pe_id, lines, ops, tally)
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    kernel = native.replay_epoch_kernel()
    if kernel is None:
        n_regions = len(region_names)
        for _, part_lines, part_ops in runs:
            code = native._trace_refusal(part_lines, part_ops, n_regions)
            if code:
                raise ValueError(
                    native._TRACE_REFUSALS[code].format(n_regions)
                )
        levels = np.empty(n, dtype=np.uint8)
        lo = 0
        for p, part_lines, part_ops in runs:
            hi = lo + part_lines.shape[0]
            levels[lo:hi] = ms.replay_trace_scalar(
                p, part_lines, part_ops, region_names, tally
            )
            lo = hi
        return levels

    result = kernel(ms, runs, len(region_names), tally)
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
