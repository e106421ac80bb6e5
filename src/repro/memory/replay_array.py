"""Array-native trace replay: the ``replay="array"`` backend.

The batched backend walks every access through per-set Python dicts; at
~0.2 us per dict transaction that loop dominates million-access traces.
This module replaces the per-access walk with whole-stream NumPy
analysis built on the classic LRU *stack property*: an access to line
``x`` hits a ``W``-way set iff fewer than ``W`` distinct lines of that
set were touched since the previous access to ``x`` (the reuse/stack
distance).  DESIGN.md section 10 carries the full exactness argument;
the shape of the computation per cache level is:

1. Prepend each touched set's resident lines as *virtual accesses* in
   LRU order (write flag = dirty bit): the real stream then replays as
   if from a cold cache, so the stack property applies verbatim.
2. Group the combined stream by set with one stable argsort; chain
   same-line occurrences with a second stable argsort by line, giving
   each access its previous (``P``) and next occurrence.
3. Bounded-window hit test: an access whose set-local gap to ``P`` is
   at most ``W`` is a sure hit (at most ``W - 1`` lines intervene).
   Otherwise walk back from it, counting the positions whose next
   occurrence lies after it (each is the last touch of a distinct line
   in the window), until ``W`` are counted (miss) or ``P`` is reached
   (hit).  The walk runs for all undecided accesses at once, in blocks
   of doubling width; a level whose probe volume passes
   ``PROBE_CAP_PER_EVENT`` per event takes the dict walk instead.
4. Misses partition into *residency periods* (one per fill, plus one
   per initially resident line).  Victims of capacity misses pair 1:1,
   in time order, with the evicted periods sorted by last-access
   position; survivors (the top ``min(W, occupancy)`` periods by last
   access) rebuild the per-set dicts in exact LRU order, dirty bits
   OR-ed over each period's writes.
5. Dirty victims (writes) and miss fills (reads) merge — victims
   first within one access — into the next level's event stream.
   Every event carries the trace position of the access that triggered
   it, which resolves DRAM region attribution and per-access service
   levels (assigned top-down: an access's level is the deepest level
   its fill had to reach).

A stream of nothing but first touches of lines not resident skips
steps 3-5: every access misses and each set is a FIFO (DESIGN.md
section 10, step 4a).

A trace may interleave several PEs (one epoch's dispatch runs).  The
L1s are private and the hierarchy is non-inclusive, so each PE's L1
solves once over all of its accesses; each L2 group then solves once
over its PEs' L1 events merged by trigger position, and the LLC once
over every group's L2 events.  Trigger positions are global trace
positions, so the merges reproduce the scalar cascade order exactly.

Every step is bit-identical to the scalar oracle: same counters, same
per-access service levels, same LRU/dirty state (the differential and
Hypothesis suites in tests/test_replay_array_parity.py,
tests/test_replay_array_properties.py and
tests/test_replay_epoch_properties.py pin this).  Short or set-diluted
streams take an equivalent per-set dict walk instead — NumPy's fixed
per-op cost would otherwise swamp the win — chosen per level by the
``ARRAY_MIN_EVENTS`` floor and the calibrated cost model below.

The same level solver replays every other LRU structure, once per
epoch over its own stream: each L2 group's STLB and each PE's BBF
stream buffer (one-set caches with ``entries`` ways) and victim cache.
Flush accounting is shared with the other backends, so it is
reproduced exactly by construction.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.memory.cache import Cache, rle_starts
from repro.obs.ledger import NULL_LEDGER
from repro.sortutil import radix_argsort
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

ARRAY_MIN_EVENTS = 192
"""Streams shorter than this always take the dict walk: the array
solver's fixed NumPy op costs outweigh walking the trace.  Epoch-grain
replay hands each cache one stream per epoch, so the benchmark
workloads' streams (down to the `--scale tiny` cells the service runs)
clear it; it keeps traces of a few hundred accesses, where every L1
falls under it, on the batched backend's per-run fused walk."""

PROBE_CAP_PER_EVENT = 64
"""Probe budget of the bounded-window hit test, per combined-stream
element.  Walk length is bounded by the distinct lines of a set, so
only long windows full of a few hot lines come near it; a level that
passes the budget is replayed by the dict walk instead (nothing has
been mutated at that point)."""

_WINDOW_BLOCK_ELEMS = 1 << 18
"""Scratch bound (elements) of one 2-D block of the window walk."""

_WINDOW_WIDE_ROWS = 4096
"""Walkers at or above this count advance one offset per NumPy pass;
fewer switch to 2-D blocks of doubling width, so a handful of long
walks costs O(log gap) passes rather than O(gap).  The one-offset pass
is kept because it is faster at equal probe volume: over the level
streams of one engine-spmm-rmat call (2-vCPU host) the walk takes
110-135 ms with it and 200-245 ms with 2-D blocks only."""


# Cost-model coefficients for the array-vs-dict dispatch (microseconds
# on the reference host; only their ratios matter).  The dict-walk side
# is miss-rate dependent — a hit is one dict transaction, a miss also
# evicts and emits next-level events — so its per-event cost
# interpolates between the two coefficients using the level's running
# hit counters.  The array side mirrors the solver: a fixed cost for
# its few dozen NumPy calls, ~linear passes over the combined stream
# (stream plus resident virtuals), a per-touched-set extract/rebuild,
# and the window walk's probe volume (about ``W`` probes per miss).  Checked against every level stream of
# the engine-sddmm-uniform and engine-spmm-rmat benchmark workloads at
# epoch grain (and their 300/3k/30k-event prefixes), each timed on both
# paths: the dict-walk estimate sums to 0.99x the measured time, and 5
# of 127 decisions pick the slower path, all near-ties (4.4 ms lost in
# total).  The fixed cost changes none of those decisions; it sends
# the small L1 streams of `--scale tiny` cells to the dict walk.
# DESIGN.md section 10 records the misprediction rates before and
# after.
_PY_HIT_US = 0.19       # dict-walk cost per hitting event
_PY_MISS_EXTRA_US = 0.55  # extra cost a missing event pays
_ARRAY_CALL_US = 250.0  # array solver fixed cost per level solve
_ARRAY_ELEM_US = 0.17   # array solver linear cost per stream element
_ARRAY_FAST_ELEM_US = 0.12  # same, when the small-footprint path holds
_ARRAY_SET_US = 2.5     # per-set extract + rebuild cost
_PROBE_US = 0.004       # per window-walk probe

# One level's output: the next level's event stream in stream order —
# (line, write, is_fill, trigger) where trigger is the trace position
# of the original access responsible for the event.
LevelEvents = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)
_EMPTY_EVENTS: LevelEvents = (_EMPTY_I64, _EMPTY_BOOL, _EMPTY_BOOL, _EMPTY_I64)


# -- stack-distance machinery ----------------------------------------------


# Stable argsort for non-negative integer keys; shared with the trace
# generators and the tiler, so the implementation lives in sortutil.
_radix_argsort = radix_argsort


def _window_hits(
    prev: np.ndarray, nxt: np.ndarray, ways: int, cap: int
) -> Optional[np.ndarray]:
    """Hit mask of a set-grouped stream by the bounded-window test, or
    None once the walk's probe volume passes ``cap``.

    ``prev``/``nxt`` (int32) are each position's previous/next
    occurrence of its line (-1 / ``len`` when absent); both stay inside
    the position's set segment, so no segment bookkeeping is needed.
    Between ``i`` and ``prev[i]``, the positions ``j`` with
    ``nxt[j] > i`` are exactly the last touches of the distinct
    intervening lines.
    """
    total = prev.shape[0]
    gap = np.arange(total, dtype=np.int32) - prev
    has_prev = prev >= 0
    hit = has_prev & (gap <= ways)
    cand = np.flatnonzero(has_prev & (gap > ways)).astype(np.int32)
    del has_prev
    g = gap[cand]
    del gap
    cnt = np.zeros(cand.shape[0], dtype=np.int32)
    probes = 0
    k, width = 1, ways  # offsets k .. k + width - 1 are examined next
    while cand.shape[0]:
        # Keep the offsets inside the longest remaining window: every
        # gathered position c - k is then above -len, and lanes at or
        # before a walker's prev (possibly negative, wrapping) are
        # masked below.
        width = min(width, int(g.max()) - k)
        probes += cand.shape[0] * width
        if probes > cap:
            return None
        if cand.shape[0] >= _WINDOW_WIDE_ROWS:
            # Many walkers: one gather per offset, no 2-D scratch.  The
            # first ``ways`` offsets all lie inside every window.
            for kk in range(k, k + width):
                seen = nxt[cand - kk] > cand
                if kk > ways:
                    seen &= g > kk
                cnt += seen
        else:
            # A few long walkers: 2-D blocks of doubling width.
            offs = np.arange(k, k + width, dtype=np.int32)
            rows = max(1, _WINDOW_BLOCK_ELEMS // width)
            for r0 in range(0, cand.shape[0], rows):
                c = cand[r0:r0 + rows]
                seen = nxt[c[:, None] - offs] > c[:, None]
                seen &= offs < g[r0:r0 + rows, None]
                cnt[r0:r0 + rows] += np.count_nonzero(seen, axis=1)
        miss = cnt >= ways
        done = ~miss & (k + width >= g)  # every offset below gap seen
        hit[cand[done]] = True
        keep = ~(miss | done)
        cand, cnt, g = cand[keep], cnt[keep], g[keep]
        k += width
        if cand.shape[0] < _WINDOW_WIDE_ROWS:
            width *= 2
    return hit


# -- one cache level, array-native -----------------------------------------


def _replay_level_array(
    cache: Cache,
    line: np.ndarray,
    write: np.ndarray,
    isfill: Optional[np.ndarray],
    trig: np.ndarray,
    set_id: np.ndarray,
    touched: np.ndarray,
    audit: Optional[dict] = None,
) -> LevelEvents:
    """Replay one level's event stream through ``cache`` wholesale.

    Counters, final per-set LRU/dirty state, and the emitted next-level
    event stream are bit-identical to :func:`_replay_level_python`
    (which is itself the scalar walk restricted to one level).
    """
    sets = cache._sets
    ways = cache.ways
    ns = cache.num_sets
    n = line.shape[0]

    # 1. Virtual accesses: every touched set's residents in LRU order.
    v_lines: List[int] = []
    v_sets: List[int] = []
    v_dirty: List[bool] = []
    for s in touched.tolist():
        d = sets[s]
        if d:
            v_lines += d.keys()
            v_dirty += d.values()
            v_sets += [s] * len(d)
    nv = len(v_lines)
    # Virtuals are never misses, so their isfill is never consulted;
    # when the stream is all fills (the L1 entry stream always is) the
    # fill mask collapses to the miss mask and is skipped entirely.
    fills_all = isfill is None or bool(isfill.all())
    if nv:
        all_line = np.concatenate([np.array(v_lines, np.int64), line])
        all_set = np.concatenate([np.array(v_sets, np.int64), set_id])
        all_write = np.concatenate([np.array(v_dirty, bool), write])
        all_isfill = (
            None if fills_all
            else np.concatenate([np.zeros(nv, bool), isfill])
        )
    else:
        all_line, all_set, all_write = line, set_id, write
        all_isfill = None if fills_all else isfill
    total = nv + n
    del v_lines, v_sets, v_dirty

    # 2. Layout: group by set (stable keeps virtuals first, then stream
    # order), then chain same-line occurrences for prev/next pointers.
    # Positions are int32 throughout: the level's temporaries are what
    # bound the replay's peak memory.
    order = _radix_argsort(all_set).astype(np.int32)
    lay_line = all_line[order]
    lay_isfill = None if all_isfill is None else all_isfill[order]
    del all_line, all_isfill
    lay_set = all_set[order]
    del all_set
    seg_first = np.empty(total, dtype=bool)
    seg_first[0] = True
    np.not_equal(lay_set[1:], lay_set[:-1], out=seg_first[1:])
    del lay_set  # a set id is line % num_sets; recomputed where needed
    seg_start = np.flatnonzero(seg_first).astype(np.int32)
    nseg = seg_start.shape[0]
    seg_id = np.cumsum(seg_first, dtype=np.int32)
    seg_id -= 1
    del seg_first
    real = order >= nv  # real (stream) accesses; order - nv is their index

    ch = _radix_argsort(lay_line).astype(np.int32)
    same = lay_line[ch]
    tail = same[1:] == same[:-1]
    del same
    prev = np.full(total, -1, dtype=np.int32)
    prev[ch[1:][tail]] = ch[:-1][tail]

    # 3. Hit mask.
    c0_seg = np.bincount(seg_id[~real], minlength=nseg)
    # Fast case: when each set's *distinct stream lines* fit in the
    # set, an access whose previous occurrence is a real access always
    # hits — at most distinct-1 < ways lines can intervene, and by the
    # same bound no line is ever evicted between two of its accesses.
    # Only the "boundary" accesses (first stream touch of a resident
    # line, at most `ways` per set) need a stack distance, and it has
    # a closed form: the residents stacked above it in LRU order, plus
    # the distinct stream lines seen earlier in the segment, minus the
    # residents among them (already counted once).
    has_prev = prev >= 0
    if not np.any(has_prev & real):
        cache.replay_fast_hint = True
        return _replay_cold(
            cache, order, nv, lay_line, all_write[order], lay_isfill,
            seg_start, seg_id, trig,
        )
    prev_virtual = np.zeros(total, dtype=bool)
    prev_virtual[has_prev] = ~real[prev[has_prev]]
    first_stream = real & (~has_prev | prev_virtual)
    del prev_virtual
    ds_seg = np.bincount(seg_id[first_stream], minlength=nseg)
    fast = int(ds_seg.max()) <= ways
    cache.replay_fast_hint = fast
    if fast:
        hit = real & has_prev
        b = np.flatnonzero(first_stream & has_prev)
        if b.size:
            my_start = seg_start[seg_id]
            fs_ex = np.cumsum(first_stream, dtype=np.int32)
            fs_ex -= first_stream
            rank_d = fs_ex[b] - fs_ex[my_start[b]]
            # Virtuals head the segment in LRU order.
            lru_j = prev[b] - my_start[prev[b]]
            b_seg = seg_id[b]
            overlap = np.zeros(b.size, dtype=np.int64)
            for k in range(1, min(ways, b.size)):
                mk = (b_seg[k:] == b_seg[:-k]) & (lru_j[:-k] > lru_j[k:])
                overlap[k:] += mk
            sd_b = c0_seg[b_seg] - 1 - lru_j + rank_d - overlap
            hit[b] = sd_b < ways
    else:
        del has_prev, first_stream
        nxt = np.full(total, total, dtype=np.int32)
        nxt[ch[:-1][tail]] = ch[1:][tail]
        hit = _window_hits(prev, nxt, ways, PROBE_CAP_PER_EVENT * total)
        del nxt
        if hit is None:
            # No simulated state has changed yet: the dict walk takes
            # over.
            if audit is not None:
                audit["bailed"] = True
            return _replay_level_python(cache, line, write, isfill, trig)
    del prev, tail
    miss = real & ~hit
    n_miss = int(np.count_nonzero(miss))
    n_hit = int(np.count_nonzero(real)) - n_miss
    del real

    # 4. Residency periods.  A period's elements are contiguous in
    # chain order with ascending layout positions (every chain head is
    # a begin), so period ids are a plain cumsum over chain order and
    # period ends are the run boundaries there.
    begins_ch = ~hit[ch]
    del hit
    pord_ch = np.cumsum(begins_ch, dtype=np.int32)
    pord_ch -= 1
    st_ch = ch[begins_ch]  # period start layout positions, chain order
    del begins_ch
    nper = st_ch.shape[0]

    p_line = lay_line[st_ch]
    p_dirty = np.bincount(
        pord_ch[all_write[order[ch]]], minlength=nper
    ) > 0
    run_end = np.empty(total, dtype=bool)
    run_end[-1] = True
    np.not_equal(pord_ch[1:], pord_ch[:-1], out=run_end[:-1])
    p_end = ch[run_end]  # pord_ch is nondecreasing, so already ordered
    del pord_ch, st_ch, run_end, ch, all_write

    # 5. Capacity misses and their victims.  Within a set, victims'
    # last-access positions strictly increase across evictions and
    # survivors hold the largest ends, so the k-th capacity miss pairs
    # with the k-th smallest end among the evicted periods.
    miss_seg = np.bincount(seg_id[miss], minlength=nseg)
    nper_seg = c0_seg + miss_seg
    occ_seg = np.minimum(ways, nper_seg)
    nevict_seg = nper_seg - occ_seg

    if int(nevict_seg.max()) == 0:
        cap_idx = _EMPTY_I64
    else:
        mcum = np.cumsum(miss, dtype=np.int32)
        my_start = seg_start[seg_id]
        ordinal = mcum - mcum[my_start] + miss[my_start]
        del mcum, my_start
        thresh = np.maximum(0, ways - c0_seg)
        cap = miss & (ordinal > thresh[seg_id])
        del ordinal
        cap_idx = np.flatnonzero(cap)
        del cap
    del seg_id

    # (set, end) sort as one composite key: ends are < total + 1, so
    # the key is collision-free and radix-sortable.
    p_order = _radix_argsort((p_line % ns) * (total + 1) + p_end)
    del p_end
    pblk = np.repeat(np.arange(nseg, dtype=np.int64), nper_seg)
    pblk_start = np.concatenate(([0], np.cumsum(nper_seg)[:-1]))
    prank = np.arange(nper, dtype=np.int64) - pblk_start[pblk]
    ev_mask = prank < nevict_seg[pblk]
    del pblk, prank
    evict_p = p_order[ev_mask]
    surv_p = p_order[~ev_mask]
    del p_order, ev_mask

    vict_dirty = p_dirty[evict_p]
    n_wb = int(vict_dirty.sum())

    cache.hits += n_hit
    cache.misses += n_miss
    cache.fills += n_miss
    cache.writebacks += n_wb

    # 6. Next-level events.
    dv_cap = cap_idx[vict_dirty]
    f_idx = np.flatnonzero(
        miss if lay_isfill is None else miss & lay_isfill
    )
    del miss, lay_isfill
    events = _events(
        order[dv_cap] - nv, p_line[evict_p[vict_dirty]],
        order[f_idx] - nv, lay_line[f_idx], trig,
    )

    # 7. Rebuild the touched sets: survivors by ascending last access
    # IS the LRU insertion order.
    _rebuild_sets(
        sets, lay_line[seg_start] % ns, occ_seg,
        p_line[surv_p], p_dirty[surv_p],
    )
    return events


def _events(
    v_idx: np.ndarray,
    v_line: np.ndarray,
    f_idx: np.ndarray,
    f_line: np.ndarray,
    trig: np.ndarray,
) -> LevelEvents:
    """Next-level events of a level solve, from the stream indices of
    the accesses that evicted a dirty line (``v_idx``, evicting
    ``v_line``) or filled (``f_idx``): globally in stream order, an
    access's dirty victim (a write) before its own fill read."""
    key = np.concatenate([
        v_idx.astype(np.int64) * 2, f_idx.astype(np.int64) * 2 + 1
    ])
    o = _radix_argsort(key)
    e_write = np.zeros(key.shape[0], dtype=bool)
    e_write[:v_idx.shape[0]] = True
    e_write = e_write[o]
    return (
        np.concatenate([v_line, f_line])[o], e_write, ~e_write,
        trig[np.concatenate([v_idx, f_idx])][o],
    )


def _rebuild_sets(
    sets: List[Dict[int, bool]],
    set_ids: np.ndarray,
    counts: np.ndarray,
    lines: np.ndarray,
    dirty: np.ndarray,
) -> None:
    """Replace each solved set with its survivors: ``counts[k]``
    consecutive entries of ``lines``/``dirty``, in LRU order, for set
    ``set_ids[k]``.  ``.tolist()`` yields plain int/bool so state
    snapshots stay type-identical to the scalar path."""
    lines_l = lines.tolist()
    dirty_l = dirty.tolist()
    off = 0
    for s, cnt in zip(set_ids.tolist(), counts.tolist()):
        sets[s] = dict(zip(lines_l[off:off + cnt], dirty_l[off:off + cnt]))
        off += cnt


def _replay_cold(
    cache: Cache,
    order: np.ndarray,
    nv: int,
    lay_line: np.ndarray,
    lay_write: np.ndarray,
    lay_isfill: Optional[np.ndarray],
    seg_start: np.ndarray,
    seg_id: np.ndarray,
    trig: np.ndarray,
) -> LevelEvents:
    """Finish a level solve whose stream accesses are all first touches
    of lines not resident.  Every one misses, so each set is a FIFO over
    its residents (LRU first) and then its stream accesses: the element
    at segment offset ``k >= W`` evicts the one at ``k - W``, and the
    last ``W`` elements survive in order."""
    ways = cache.ways
    total = order.shape[0]
    off = np.arange(total, dtype=np.int32) - seg_start[seg_id]
    evict = np.flatnonzero(off >= ways)  # real: a set holds <= W virtuals
    dirty = lay_write[evict - ways]
    n = total - nv
    cache.misses += n
    cache.fills += n
    cache.writebacks += int(np.count_nonzero(dirty))
    v = evict[dirty]
    f = np.flatnonzero(
        order >= nv if lay_isfill is None else (order >= nv) & lay_isfill
    )
    events = _events(
        order[v] - nv, lay_line[v - ways], order[f] - nv, lay_line[f], trig
    )
    seg_len = np.diff(np.append(seg_start, total))
    keep = np.flatnonzero(off >= (seg_len - ways)[seg_id])
    _rebuild_sets(
        cache._sets, lay_line[seg_start] % cache.num_sets,
        np.minimum(seg_len, ways), lay_line[keep], lay_write[keep],
    )
    return events


def _fits_without_eviction(cache: Cache, line: np.ndarray) -> bool:
    """Whether a one-set cache provably evicts nothing on ``line``: its
    residents plus every line in the stream's value range fit in its
    ways."""
    if cache.num_sets != 1:
        return False
    span = int(line.max()) - int(line.min())
    return len(cache._sets[0]) + span < cache.ways


def _replay_no_eviction(
    cache: Cache,
    line: np.ndarray,
    write: np.ndarray,
    isfill: Optional[np.ndarray],
    trig: np.ndarray,
) -> LevelEvents:
    """Bulk twin of the dict walk for a stream that evicts nothing from
    a one-set cache (see :func:`_fits_without_eviction`): each line not
    resident misses exactly once, at its first access, and the touched
    lines end up MRU-most in order of last access, so the set updates in
    O(distinct lines) instead of O(stream)."""
    s = cache._sets[0]
    n = line.shape[0]
    order = _radix_argsort(line)
    head = rle_starts(line[order])
    uniq = line[order[head]].tolist()
    first = order[head]
    last = order[np.append(head[1:], n) - 1]
    dirty = np.logical_or.reduceat(write[order], head).tolist()
    new = np.array([x not in s for x in uniq], dtype=bool)
    for k in np.argsort(last).tolist():
        s[uniq[k]] = s.pop(uniq[k], False) or dirty[k]
    misses = int(np.count_nonzero(new))
    cache.hits += n - misses
    cache.misses += misses
    cache.fills += misses
    f = np.sort(first[new])
    if isfill is not None:
        f = f[isfill[f]]
    e_write = np.zeros(f.shape[0], dtype=bool)
    return line[f], e_write, ~e_write, trig[f]


def _replay_level_python(
    cache: Cache,
    line: np.ndarray,
    write: np.ndarray,
    isfill: Optional[np.ndarray],
    trig: np.ndarray,
) -> LevelEvents:
    """Dict-walk twin of :func:`_replay_level_array` for short or
    set-diluted streams: one pass in stream order, per-set LRU dicts,
    identical counters, state, and emitted events."""
    if _fits_without_eviction(cache, line):
        return _replay_no_eviction(cache, line, write, isfill, trig)
    sets = cache._sets
    ns = cache.num_sets
    ways = cache.ways
    miss_j: List[int] = []
    miss_append = miss_j.append
    victims: List[Tuple[int, int]] = []
    for j, (ln, w) in enumerate(zip(line.tolist(), write.tolist())):
        s = sets[ln % ns]
        d = s.pop(ln, None)
        if d is not None:
            s[ln] = d or w
            continue
        if len(s) >= ways:
            victim = next(iter(s))
            if s.pop(victim):
                victims.append((j, victim))
        s[ln] = w
        miss_append(j)
    misses = len(miss_j)
    cache.hits += line.shape[0] - misses
    cache.misses += misses
    cache.fills += misses
    cache.writebacks += len(victims)
    f = np.array(miss_j, dtype=np.int64)
    if isfill is not None:
        f = f[isfill[f]]
    if not victims:
        e_write = np.zeros(f.shape[0], dtype=bool)
        return line[f], e_write, ~e_write, trig[f]
    v_j, v_line = (np.array(x, dtype=np.int64) for x in zip(*victims))
    return _events(v_j, v_line, f, line[f], trig)


def _replay_level(
    cache: Cache,
    line: np.ndarray,
    write: np.ndarray,
    isfill: Optional[np.ndarray],
    trig: np.ndarray,
    ledger=NULL_LEDGER,
    level: str = "",
) -> LevelEvents:
    """Replay one level, choosing between the array solver and the
    dict walk by the calibrated cost model: the array path wins on
    long, set-dense streams; short or set-diluted ones walk."""
    if line.shape[0] == 0:
        return _EMPTY_EVENTS
    audit: Optional[dict] = {} if ledger.enabled else None
    plan = _plan_level(cache, line, audit)
    return _solve_level(
        cache, line, write, isfill, trig, plan, audit, ledger, level
    )


def _solve_level(
    cache: Cache,
    line: np.ndarray,
    write: np.ndarray,
    isfill: Optional[np.ndarray],
    trig: np.ndarray,
    plan: Optional[Tuple[np.ndarray, np.ndarray]],
    audit: Optional[dict],
    ledger,
    level: str,
) -> LevelEvents:
    """Run one planned level solve.  With ``audit`` (ledger attached)
    the decision is recorded as a ``dispatch`` event: cost-model
    inputs, predicted costs, chosen backend, measured wall time."""
    t0 = perf_counter() if audit is not None else 0.0
    if plan is None:
        out = _replay_level_python(cache, line, write, isfill, trig)
        chosen = "dict"
    else:
        out = _replay_level_array(
            cache, line, write, isfill, trig, plan[0], plan[1], audit
        )
        chosen = (
            "dict" if audit is not None and audit.get("bailed") else "array"
        )
    if audit is not None:
        audit["measured_us"] = (perf_counter() - t0) * 1e6
        ledger.emit("dispatch", level=level, chosen=chosen, **audit)
    return out


def _plan_level(
    cache: Cache, line: np.ndarray, audit: Optional[dict] = None
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Cost-model dispatch for one level: ``(set_id, touched)`` when
    the array solver should run, ``None`` when the dict walk wins.

    When ``audit`` is given (dispatch audit enabled) it is filled with
    the model's inputs and predictions.
    """
    n = line.shape[0]
    # Miss-rate estimate from the level's running counters, smoothed
    # towards 50% so a cold cache (no history) assumes a mixed stream.
    hits, misses = cache.hits, cache.misses
    miss_rate = (misses + 64.0) / (hits + misses + 128.0)
    py_us = (_PY_HIT_US + miss_rate * _PY_MISS_EXTRA_US) * n
    reason = (
        "min_events" if n < ARRAY_MIN_EVENTS
        else "no_eviction" if _fits_without_eviction(cache, line)
        else None
    )
    if reason is not None:
        if audit is not None:
            audit.update(
                cache=cache.name,
                events=int(n),
                miss_rate=miss_rate,
                hint=bool(cache.replay_fast_hint),
                predicted_py_us=py_us,
                predicted_array_us=None,
                reason=reason,
            )
        return None
    set_id = (line % cache.num_sets).astype(np.int32)
    if cache.num_sets <= (n << 2):
        touched = np.flatnonzero(
            np.bincount(set_id, minlength=cache.num_sets)
        )
    else:
        touched = np.unique(set_id)
    ways = cache.ways
    # Estimated solver inputs: every touched set contributes up to
    # `ways` resident virtual accesses.
    ntot = n + touched.shape[0] * ways
    if cache.replay_fast_hint:
        # Last solve found every set's stream footprint within the
        # associativity, so the window walk is expected to be skipped;
        # one mispredicted solve flips the hint back.
        array_us = (
            _ARRAY_CALL_US
            + _ARRAY_FAST_ELEM_US * ntot
            + _ARRAY_SET_US * touched.shape[0]
        )
    else:
        array_us = (
            _ARRAY_CALL_US
            + _ARRAY_ELEM_US * ntot
            + _ARRAY_SET_US * touched.shape[0]
            + _PROBE_US * ways * miss_rate * n
        )
    if audit is not None:
        audit.update(
            cache=cache.name,
            events=int(n),
            sets=int(touched.shape[0]),
            miss_rate=miss_rate,
            hint=bool(cache.replay_fast_hint),
            predicted_py_us=py_us,
            predicted_array_us=array_us,
            reason="cost_model",
        )
    if py_us < array_us:
        return None
    return set_id, touched


# -- the dense-cached cascade ----------------------------------------------


def _merge_events(parts: List[LevelEvents]) -> LevelEvents:
    """Merge several level outputs into one stream in trigger order.

    Triggers are distinct trace positions across parts, and each part
    is already in trigger order with victims before fills, so a stable
    sort on the trigger alone reproduces the scalar cascade order."""
    parts = [p for p in parts if p[0].shape[0]]
    if not parts:
        return _EMPTY_EVENTS
    if len(parts) == 1:
        return parts[0]
    line, write, isfill, trig = (
        np.concatenate([p[k] for p in parts]) for k in range(4)
    )
    o = _radix_argsort(trig)
    return line[o], write[o], isfill[o], trig[o]


def _dense_cascade(
    ms: MemorySystem,
    dense_pos: Dict[int, np.ndarray],
    runs: List[Tuple[int, int, int]],
    lines: np.ndarray,
    ops: np.ndarray,
    region_names: Sequence[Optional[str]],
    levels: np.ndarray,
) -> None:
    """L1 -> L2 -> LLC -> DRAM for the dense-cached accesses of a trace
    (STLB already consulted), writing their service levels into
    ``levels``.  ``dense_pos`` maps each PE to the trace positions of
    its dense-cached accesses; ``runs`` are the trace's maximal
    same-PE runs ``(pe, lo, hi)`` in order.

    Service levels are assigned top-down: every access starts at L1,
    and each level's fill misses push their triggering accesses one
    level deeper; whatever reaches past the LLC is DRAM traffic.
    """
    ledger = ms.ledger
    by_group: Dict[int, List[LevelEvents]] = {}

    def l1_stream(p: int) -> Tuple[np.ndarray, np.ndarray]:
        # PE p's run-length deduped L1 stream and its run starts, built
        # on demand so only one PE's stream is alive at a time.
        u_lines = lines[dense_pos[p]]
        starts = rle_starts(u_lines).astype(np.int32)
        if starts.shape[0] < u_lines.shape[0]:
            u_lines = u_lines[starts]
        return u_lines, starts

    def solve_l1(p, u_lines, starts, plan, audit) -> None:
        # L1 is private, so each PE solves once over all its accesses.
        pos = dense_pos[p]
        w = (ops[pos] & OP_WRITE) != 0
        m = starts.shape[0]
        if m == pos.shape[0]:
            u_writes, trig = w, pos
        else:
            u_writes = np.logical_or.reduceat(w, starts)
            trig = pos[starts]
        del w
        l1 = ms.l1s[p]
        ev = _solve_level(
            l1, u_lines, u_writes, None, trig, plan, audit, ledger, "l1"
        )
        l1.hits += pos.shape[0] - m  # run-length repeats are MRU hits
        levels[ev[3][ev[2]]] = int(ServiceLevel.L2)
        by_group.setdefault(ms._group_of(p), []).append(ev)

    # Plan each L1 once.  Until some L1 plans the array solver, the
    # dict-planned PEs wait (keeping only their audits): if none does,
    # the per-run fused walk below replays them.
    waiting: List[Tuple[int, Optional[dict]]] = []
    solving = False
    for p in sorted(dense_pos):
        audit = {} if ledger.enabled else None
        u_lines, starts = l1_stream(p)
        plan = _plan_level(ms.l1s[p], u_lines, audit)
        if plan is None and not solving:
            waiting.append((p, audit))
            continue
        if not solving:
            solving = True
            for q, q_audit in waiting:
                solve_l1(q, *l1_stream(q), None, q_audit)
            waiting.clear()
        solve_l1(p, u_lines, starts, plan, audit)
        del u_lines, starts, plan

    if waiting:
        # Every L1 would take the dict walk anyway: replay each run's
        # dense accesses through the batched backend's fused cascade —
        # one pass over the deduped trace beats walking three per-level
        # event streams through the same dicts.
        measured = dict.fromkeys(dense_pos, 0.0)
        for p, lo, hi in runs:
            pos = dense_pos.get(p)
            if pos is None:
                continue
            sel = pos[np.searchsorted(pos, lo):np.searchsorted(pos, hi)]
            if not sel.shape[0]:
                continue
            t0 = perf_counter()
            op = ops[sel]
            levels[sel] = ms._dense_cached_many(
                p, ms._group_of(p), lines[sel], (op & OP_WRITE) != 0,
                op >> OP_REGION_SHIFT, region_names,
            )
            measured[p] += perf_counter() - t0
        if ledger.enabled:
            # The measured time covers the whole fused L1->DRAM
            # cascade, not just the L1 level the prediction priced;
            # the audit keeps the asymmetry visible via
            # chosen="batched".
            for p, audit in waiting:
                audit["measured_us"] = measured[p] * 1e6
                ledger.emit("dispatch", level="l1", chosen="batched", **audit)
        return

    # L2: each group over its PEs' L1 events in trace order.
    l2_out: List[LevelEvents] = []
    for g in sorted(by_group):
        ev = _replay_level(
            ms.l2s[g], *_merge_events(by_group.pop(g)),
            ledger=ledger, level="l2",
        )
        levels[ev[3][ev[2]]] = int(ServiceLevel.LLC)
        l2_out.append(ev)

    # LLC: every group's L2 events in trace order.
    e_line, e_write, e_isfill, e_trig = _replay_level(
        ms.llc, *_merge_events(l2_out), ledger=ledger, level="llc"
    )
    del l2_out, e_line, e_write
    if e_isfill.any():
        fill_trig = e_trig[e_isfill]
        levels[fill_trig] = int(ServiceLevel.DRAM)
        ms._dram_read_many(ops[fill_trig] >> OP_REGION_SHIFT, region_names)
    if not e_isfill.all():
        ms._dram_write_many(
            ops[e_trig[~e_isfill]] >> OP_REGION_SHIFT, region_names
        )


def _replay_deduped(
    cache: Cache,
    keys: np.ndarray,
    writes: Optional[np.ndarray],
    ledger,
    level: str,
    repeats: int = 0,
) -> LevelEvents:
    """Replay one structure's whole stream through :func:`_replay_level`
    after run-length dedup: consecutive repeats are MRU hits, credited
    (with ``repeats`` already removed by the caller) without being
    replayed, and their dirty bits OR into the run.  ``writes=None``
    means a read-only stream.  The events' triggers index ``keys``."""
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


def replay_trace_array(
    ms: MemorySystem,
    pe_id,
    lines: np.ndarray,
    ops: np.ndarray,
    region_names: Sequence[Optional[str]] = TRACE_REGIONS,
) -> np.ndarray:
    """``replay="array"`` backend entry point (see the registry in
    :mod:`repro.config`; an epoch backend).  ``pe_id`` is one PE, or an
    epoch's dispatch runs ``(pe, lo, hi)`` over ``lines``/``ops``.

    Every LRU structure replays once, over its own stream in dispatch
    order, through :func:`_replay_level`: each L2 group's STLB over its
    PEs' pages, each PE's BBF stream buffer and victim cache over its
    accesses on those paths, and the dense-cached accesses through
    :func:`_dense_cascade`, one solve per cache.  The structures share
    no state and DRAM traffic is counted order-free, so the streams
    replay independently of each other.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    ops = np.ascontiguousarray(ops, dtype=np.int64)
    n = lines.shape[0]
    levels = np.full(n, int(ServiceLevel.L1), dtype=np.uint8)
    if n == 0:
        return levels
    runs: List[Tuple[int, int, int]] = []
    for p, lo, hi in [(pe_id, 0, n)] if np.ndim(pe_id) == 0 else pe_id:
        if runs and runs[-1][0] == p:
            runs[-1] = (p, runs[-1][1], hi)  # consecutive runs of one PE
        elif hi > lo:
            runs.append((int(p), lo, hi))
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
            ms, by_path.pop(OP_DENSE), runs, lines, ops, region_names,
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
            _, e_write, e_isfill, e_trig = _replay_deduped(
                cache, lines[sel], w, ledger, level
            )
            levels[sel] = int(hit_level)
            miss = e_trig[e_isfill]
            levels[sel[miss]] = int(ServiceLevel.DRAM)
            rid = op >> OP_REGION_SHIFT
            miss_w = w[miss]
            ms._dram_read_many(rid[miss[~miss_w]], region_names)
            # A stream miss is charged to DRAM when it happens (a write
            # if the access writes), so a dirty stream-buffer victim
            # only counts as a writeback; victim-cache dirty evictions
            # are DRAM writes.
            ms._dram_write_many(
                rid[miss[miss_w] if kind == OP_STREAM else e_trig[e_write]],
                region_names,
            )
    return levels
