"""Level-grain trace replay: the ``replay="array"`` backend.

Every LRU structure of the hierarchy replays once per epoch, over its
own event stream, as one walk of that cache level: each PE's L1 over
its run-length-deduped dense accesses, each L2 group over its PEs' L1
events merged in trace order, the LLC over every group's L2 events,
and each group's STLB and each PE's BBF stream buffer and victim cache
over their own accesses.

The walk of one level is :func:`walk_level`: the compiled kernel
``repro/native/cache_walk.c`` when it loads on this host, else its
Python twin :func:`walk_twin`, a loop over :meth:`Cache.access` (the
scalar oracle itself).  Both apply ``Cache.access`` semantics to each
event in order and emit the next level's events in stream order: an
access's dirty victim (a write) first, then its own fill read when it
missed and fills.  Every event carries the trace position of the
access that triggered it, which resolves DRAM region attribution and
per-access service levels (assigned top-down: an access's level is the
deepest level its fill had to reach).

A trace may interleave several PEs (one epoch's dispatch runs
``(pe, lo, hi)``, which tile the trace in order).  The L1s are private
and the hierarchy is non-inclusive, so each PE's L1 walks once over all
of its accesses.  Trigger positions are global trace positions and each
walk emits in trigger order, so the events of run ``[lo, hi)`` are one
slice of its PE's (or its L2 group's) output: concatenating the slices
run after run, with no sort, reproduces the scalar cascade order
exactly (DESIGN.md section 10).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.memory.cache import Cache, rle_starts
from repro.obs.ledger import NULL_LEDGER
from repro.memory.tlb import LINES_PER_PAGE
from repro.memory.hierarchy import (
    OP_DENSE,
    OP_DENSE_BYPASS,
    OP_PATH_MASK,
    OP_REGION_SHIFT,
    OP_STREAM,
    OP_WRITE,
    TRACE_REGIONS,
    MemorySystem,
    ServiceLevel,
)

# The next level's events in stream order: (line, write, pos).  A walk
# returns pos as an index into the walked stream; a level replay maps
# it to the trace position of the access responsible (the trigger).
# Fills are the events that do not write.
Events = Tuple[np.ndarray, np.ndarray, np.ndarray]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_EVENTS: Events = (_EMPTY_I64, np.empty(0, dtype=bool), _EMPTY_I64)
_ONE_SET = np.zeros(1, dtype=np.int64)


# -- one cache level ---------------------------------------------------------


def walk_twin(
    cache: Cache,
    lines: np.ndarray,
    writes: np.ndarray,
    isfill: Optional[np.ndarray],
) -> Events:
    """Python twin of the compiled cache walk: :meth:`Cache.access` on
    each event in order (``isfill=None``: every miss fills)."""
    access = cache.access
    fills = None if isfill is None else isfill.tolist()
    e_lines: List[int] = []
    e_write: List[bool] = []
    e_pos: List[int] = []
    for p, (line, w) in enumerate(zip(lines.tolist(), writes.tolist())):
        hit, victim = access(line, w)
        if victim is not None:
            e_lines.append(victim)
            e_write.append(True)
            e_pos.append(p)
        if not hit and (fills is None or fills[p]):
            e_lines.append(line)
            e_write.append(False)
            e_pos.append(p)
    return (
        np.array(e_lines, dtype=np.int64),
        np.array(e_write, dtype=bool),
        np.array(e_pos, dtype=np.int64),
    )


def walk_native(
    kernel,
    cache: Cache,
    lines: np.ndarray,
    writes: np.ndarray,
    isfill: Optional[np.ndarray],
) -> Events:
    """The compiled cache walk over one stream: only the sets the
    stream touches go in and out of ``cache._sets``."""
    ns = cache.num_sets
    if ns == 1:
        touched = _ONE_SET
    else:
        set_id = lines & (ns - 1) if ns & (ns - 1) == 0 else lines % ns
        touched = (
            np.flatnonzero(np.bincount(set_id, minlength=ns))
            if ns <= 4 * lines.shape[0] else np.unique(set_id)
        )
        del set_id
    sets = cache._sets
    touched_l = touched.tolist()
    (hits, misses, wbs), final, e_lines, e_write, e_pos = kernel(
        ns, cache.ways, touched, [sets[s] for s in touched_l],
        lines, writes, isfill,
    )
    for s, d in zip(touched_l, final):
        sets[s] = d
    cache.hits += hits
    cache.misses += misses
    cache.fills += misses
    cache.writebacks += wbs
    return e_lines, e_write, e_pos


def walk_level(
    cache: Cache,
    lines: np.ndarray,
    writes: np.ndarray,
    isfill: Optional[np.ndarray] = None,
) -> Events:
    """Walk one event stream through ``cache``: the compiled kernel
    when it loads on this host, else :func:`walk_twin`.  Counters,
    final per-set LRU/dirty state and the emitted events are identical
    either way."""
    native.check_cache_stream(lines, writes, isfill)
    kernel = native.cache_walk_kernel()
    if kernel is None:
        return walk_twin(cache, lines, writes, isfill)
    return walk_native(kernel, cache, lines, writes, isfill)


def _replay_level(
    cache: Cache,
    lines: np.ndarray,
    writes: np.ndarray,
    isfill: Optional[np.ndarray],
    trig: np.ndarray,
    ledger=NULL_LEDGER,
    level: str = "",
) -> Events:
    """One level as one timed call: :func:`walk_level`, with the events
    mapped to their triggers.  With a ledger attached the call is
    recorded as a ``dispatch`` event (which walk ran, for how long)."""
    n = lines.shape[0]
    if n == 0:
        return _EMPTY_EVENTS
    t0 = perf_counter() if ledger.enabled else 0.0
    e_lines, e_write, e_pos = walk_level(cache, lines, writes, isfill)
    if ledger.enabled:
        ledger.emit(
            "dispatch", cache=cache.name, level=level, events=int(n),
            chosen=native.kernels_impl(),
            measured_us=(perf_counter() - t0) * 1e6,
        )
    return e_lines, e_write, trig[e_pos]


def _replay_deduped(
    cache: Cache,
    keys: np.ndarray,
    writes: Optional[np.ndarray],
    ledger,
    level: str,
    repeats: int = 0,
) -> Events:
    """Replay one structure's whole stream (every miss fills) after
    run-length dedup: consecutive repeats are MRU hits, credited (with
    ``repeats`` already removed by the caller) without being replayed,
    and their dirty bits OR into the run.  ``writes=None`` means a
    read-only stream.  The events' triggers index ``keys``."""
    n = keys.shape[0]
    starts = rle_starts(keys)
    m = starts.shape[0]
    if m < n:
        keys = keys[starts]
        if writes is not None:
            writes = np.logical_or.reduceat(writes, starts)
    if writes is None:
        writes = np.zeros(m, dtype=bool)
    ev = _replay_level(cache, keys, writes, None, starts, ledger, level)
    cache.hits += repeats + n - m
    return ev


# -- the dense-cached cascade ----------------------------------------------


def _merge_runs(
    parts: Dict[int, Events], runs: Sequence[Tuple[int, int, int]]
) -> Events:
    """Merge per-unit level outputs into one stream in trace order.

    ``runs`` are dispatch runs ``(unit, lo, hi)`` in trace order, each
    owning trace positions ``[lo, hi)``; a unit is a PE (its L1 events)
    or an L2 group (its L2 events), and every event of ``parts[unit]``
    was triggered inside one of that unit's runs.  Each part is in
    trigger order with victims before fills, so the merged stream is
    each run's slice of its unit's events, run after run: exactly the
    order a stable sort by trigger gives, found without sorting.
    Consecutive slices of one unit are one slice."""
    parts = {u: ev for u, ev in parts.items() if ev[0].shape[0]}
    if not parts:
        return _EMPTY_EVENTS
    if len(parts) == 1:
        return next(iter(parts.values()))
    # Where each of a unit's runs ends in its events, searched with the
    # triggers' own dtype: an int64 needle would make NumPy convert the
    # whole haystack on every call.
    ends = {
        u: iter(trig.searchsorted(
            np.array([hi for v, _, hi in runs if v == u], dtype=trig.dtype)
        ).tolist())
        for u, (_, _, trig) in parts.items()
    }
    cursor = dict.fromkeys(parts, 0)
    slices: List[List[int]] = []  # [unit, start, end]
    for u, _, _ in runs:
        if u not in parts:
            continue
        start, end = cursor[u], next(ends[u])
        if end == start:
            continue
        cursor[u] = end
        if slices and slices[-1][0] == u:
            slices[-1][2] = end
        else:
            slices.append([u, start, end])
    return tuple(
        np.concatenate([parts[u][k][a:b] for u, a, b in slices])
        for k in range(3)
    )


def _dense_cascade(
    ms: MemorySystem,
    runs: Sequence[Tuple[int, int, int]],
    dense_pos: Dict[int, np.ndarray],
    lines: np.ndarray,
    ops: np.ndarray,
    region_names: Sequence[Optional[str]],
    levels: np.ndarray,
) -> None:
    """L1 -> L2 -> LLC -> DRAM for the dense-cached accesses of a trace
    (STLB already consulted), writing their service levels into
    ``levels``.  ``runs`` is the trace's run table and ``dense_pos``
    maps each PE to the trace positions of its dense-cached accesses.

    Service levels are assigned top-down: every access starts at L1,
    and each level's fill misses push their triggering accesses one
    level deeper; whatever reaches past the LLC is DRAM traffic.  A
    dirty victim's write reaches the next level without a fill, so
    below L1 only reads fill.
    """
    ledger = ms.ledger
    l1_out: Dict[int, Events] = {}
    for p, pos in dense_pos.items():
        e_line, e_write, e_idx = _replay_deduped(
            ms.l1s[p], lines[pos], (ops[pos] & OP_WRITE) != 0, ledger, "l1"
        )
        e_trig = pos[e_idx]
        levels[e_trig[~e_write]] = int(ServiceLevel.L2)
        l1_out[p] = (e_line, e_write, e_trig)

    # L2: each group over its PEs' L1 events in trace order.
    group_runs: Dict[int, List[Tuple[int, int, int]]] = {}
    for run in runs:
        group_runs.setdefault(ms._group_of(run[0]), []).append(run)
    l2_out: Dict[int, Events] = {}
    for g, g_runs in sorted(group_runs.items()):
        e_line, e_write, e_trig = _merge_runs(
            {p: l1_out.pop(p) for p, _, _ in g_runs if p in l1_out}, g_runs
        )
        ev = _replay_level(
            ms.l2s[g], e_line, e_write, ~e_write, e_trig, ledger, "l2"
        )
        levels[ev[2][~ev[1]]] = int(ServiceLevel.LLC)
        l2_out[g] = ev

    # LLC: every group's L2 events in trace order.
    e_line, e_write, e_trig = _merge_runs(
        l2_out, [(ms._group_of(p), lo, hi) for p, lo, hi in runs]
    )
    del l2_out
    _, e_write, e_trig = _replay_level(
        ms.llc, e_line, e_write, ~e_write, e_trig, ledger, "llc"
    )
    fill_trig = e_trig[~e_write]
    levels[fill_trig] = int(ServiceLevel.DRAM)
    ms._dram_many(ops[fill_trig] >> OP_REGION_SHIFT, region_names, False)
    ms._dram_many(ops[e_trig[e_write]] >> OP_REGION_SHIFT, region_names, True)


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


def replay_trace_array(
    ms: MemorySystem,
    pe_id,
    lines: np.ndarray,
    ops: np.ndarray,
    region_names: Sequence[Optional[str]] = TRACE_REGIONS,
) -> np.ndarray:
    """``replay="array"`` entry point.  ``pe_id`` is one PE, or an
    epoch's dispatch runs ``(pe, lo, hi)`` over ``lines``/``ops``.

    Every LRU structure replays once, over its own stream in dispatch
    order, through :func:`_replay_level`: each L2 group's STLB over its
    PEs' pages, each PE's BBF stream buffer and victim cache over its
    accesses on those paths, and the dense-cached accesses through
    :func:`_dense_cascade`, one walk per cache.  The structures share
    no state and DRAM traffic is counted order-free, so the streams
    replay independently of each other.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    ops = np.ascontiguousarray(ops, dtype=np.int64)
    n = lines.shape[0]
    runs = _run_table(ms, pe_id, n)
    levels = np.full(n, int(ServiceLevel.L1), dtype=np.uint8)
    if n == 0:
        return levels
    ledger = ms.ledger
    by_group: Dict[int, List[Tuple[int, int]]] = {}
    for p, lo, hi in runs:
        by_group.setdefault(ms._group_of(p), []).append((lo, hi))

    # STLB: each group's pages in dispatch order, deduped run by run
    # first (a line-sequential stream stays on one page for a while).
    for g, sp in sorted(by_group.items()):
        pages = []
        for lo, hi in sp:
            run_pages = lines[lo:hi] // LINES_PER_PAGE
            pages.append(run_pages[rle_starts(run_pages)])
        pages = np.concatenate(pages)
        _replay_deduped(
            ms.stlbs[g], pages, None, ledger, "stlb",
            repeats=sum(hi - lo for lo, hi in sp) - pages.shape[0],
        )
    del by_group

    # Each PE's trace positions per path, gathered run by run.  Trace
    # positions are int32 (an epoch is far below 2**31 accesses).
    path = (ops & OP_PATH_MASK).astype(np.uint8)
    parts: Dict[int, Dict[int, List[np.ndarray]]] = {
        OP_DENSE: {}, OP_DENSE_BYPASS: {}, OP_STREAM: {},
    }
    for p, lo, hi in runs:
        run_path = path[lo:hi]
        for kind, sel in parts.items():
            idx = np.flatnonzero(run_path == kind)
            if idx.shape[0]:
                idx += lo
                sel.setdefault(p, []).append(idx.astype(np.int32))
    del path
    by_path = {
        kind: {
            p: pos[0] if len(pos) == 1 else np.concatenate(pos)
            for p, pos in sorted(sel.items())
        }
        for kind, sel in parts.items()
    }
    del parts
    if by_path[OP_DENSE]:
        _dense_cascade(
            ms, runs, by_path.pop(OP_DENSE), lines, ops, region_names,
            levels,
        )

    # Bypass paths: each PE's victim cache and stream buffer.
    for kind, level, hit_level in (
        (OP_DENSE_BYPASS, "victim", ServiceLevel.VICTIM),
        (OP_STREAM, "bbf", ServiceLevel.BBF),
    ):
        for p, sel in by_path[kind].items():
            op = ops[sel]
            w = (op & OP_WRITE) != 0
            bbf = ms.bbfs[p]
            cache = bbf.victim if kind == OP_DENSE_BYPASS else bbf.stream
            _, e_write, e_trig = _replay_deduped(
                cache, lines[sel], w, ledger, level
            )
            levels[sel] = int(hit_level)
            miss = e_trig[~e_write]
            levels[sel[miss]] = int(ServiceLevel.DRAM)
            rid = op >> OP_REGION_SHIFT
            miss_w = w[miss]
            ms._dram_many(rid[miss[~miss_w]], region_names, False)
            # A stream miss is charged to DRAM when it happens (a write
            # if the access writes), so a dirty stream-buffer victim
            # only counts as a writeback; victim-cache dirty evictions
            # are DRAM writes.
            ms._dram_many(
                rid[miss[miss_w] if kind == OP_STREAM else e_trig[e_write]],
                region_names, True,
            )
    return levels
