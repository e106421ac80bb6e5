"""Vectorized trace generation for the PE layer.

The scalar executors in :mod:`repro.core.pe` walk every nonzero in
Python and push each operand through ``VectorRegisterFile.access``.
This module derives the same VRF access stream for a PE's whole epoch
*as NumPy arrays* straight from the tile's CSR/COO index slices
(line-id arithmetic through :class:`~repro.memory.address.AddressMap`),
elides accesses that are provably invisible hits, and walks what
remains through :func:`walk_vrf`: the compiled scalar walk in
:mod:`repro.native`, or its Python twin :func:`_run_vrf_stream` where
no kernel loads.  The emitted ``(lines, ops)`` trace, the
VRF state and counters, and therefore everything downstream (replay,
``AccessStats``, ``PECounters``, timing) are bit-identical to the
scalar oracle — the parity suite in ``tests/test_execution_parity.py``
pins this per access.

Why elision is exact (full argument in DESIGN.md section 7): CSR order
makes the rMatrix operand of consecutive nonzeros repeat in long runs,
and SDDMM output lines repeat in runs of ``CACHE_LINE_BYTES/4``.  An
intermediate touch of such a run is a guaranteed VRF *hit* on an
already-dirty (or clean, for read-only slots) line, so it emits
nothing and leaves the dirty count unchanged; its only effect is an
LRU move of the run's own line.  As long as the line is re-touched
before ``capacity`` distinct other lines intervene, it can never reach
the LRU head (never evicted) and — being the youngest dirty line —
can never enter a Write-back Manager drain set (which keeps the
youngest ``low`` dirty lines).  Hence dropping the intermediate
touches, while keeping the first, the last, and every ``cadence``-th
touch of each run, changes no hit/miss outcome, no eviction victim,
no drain set, and no emission: only ``tag_hits`` must be credited for
the skipped touches, which is done in bulk.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro import native
from repro.config import CACHE_LINE_BYTES

_OUT_VALS_PER_LINE = CACHE_LINE_BYTES // 4

_OP_NONE = -1
"""Emission sentinel: a VRF miss that allocates without a memory read
(the SDDMM output slot is write-only)."""

class TraceBuffer:
    """Growable int64 ``(lines, ops)`` trace storage for one PE.

    Storage is preallocated and reused across epochs (amortised-doubling
    growth), the dtype is pinned to int64, and ``views()`` hands
    zero-copy slices to the replay call.
    """

    __slots__ = ("_lines", "_ops", "_n")

    def __init__(self, capacity: int = 4096) -> None:
        cap = max(16, capacity)
        self._lines = np.empty(cap, dtype=np.int64)
        self._ops = np.empty(cap, dtype=np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        cap = self._lines.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in ("_lines", "_ops"):
            old = getattr(self, name)
            arr = np.empty(cap, dtype=np.int64)
            arr[: self._n] = old[: self._n]
            setattr(self, name, arr)

    def extend_range(self, first: int, count: int, op: int) -> None:
        """Append ``count`` consecutive lines sharing one op (streams)."""
        if count <= 0:
            return
        self._reserve(count)
        n = self._n
        self._lines[n : n + count] = np.arange(
            first, first + count, dtype=np.int64
        )
        self._ops[n : n + count] = op
        self._n = n + count

    def views(self) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy (lines, ops) views of the buffered trace."""
        return self._lines[: self._n], self._ops[: self._n]

    def extend_arrays(self, lines: np.ndarray, ops: np.ndarray) -> None:
        """Append parallel int64 arrays (VRF walk emissions)."""
        k = int(lines.shape[0])
        if k == 0:
            return
        self._reserve(k)
        n = self._n
        self._lines[n : n + k] = lines
        self._ops[n : n + k] = ops
        self._n = n + k

    def clear(self) -> None:
        self._n = 0


def _elision_cadence(
    vrf, slots_per_nnz: int, live_lines: int, dirty_live: int
) -> int:
    """Largest safe re-touch cadence (in nonzeros) for run elision, or
    1 when elision must stay off.

    Between two kept touches of a live run, at most
    ``slots_per_nnz * (cadence + 1)`` other accesses intervene; the
    safety condition keeps that strictly below the VRF capacity minus
    the live lines themselves (so no live line can sink to the LRU
    head), and requires the slot's dirty live lines to fit inside the
    drain floor (the Write-back Manager never drains the youngest
    ``low`` dirty lines, so live dirty lines are never drained).
    """
    if dirty_live > vrf._low:
        return 1
    cadence = (vrf.num_registers - live_lines - 2) // slots_per_nnz - 1
    return cadence if cadence >= 2 else 1


def _run_keep_mask(ids: np.ndarray, cadence: int) -> np.ndarray:
    """Touch schedule over consecutive same-value runs: keep the first
    element of each run, every ``cadence``-th after it, and the last."""
    n = ids.shape[0]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    last = np.empty(n, dtype=bool)
    last[-1] = True
    last[:-1] = first[1:]
    idx = np.arange(n, dtype=np.int32)
    run_start = np.maximum.accumulate(np.where(first, idx, np.int32(0)))
    d = idx - run_start
    keep = first | last
    # Mid-run cadence touches exist only in runs longer than the
    # cadence; the full-array modulo is wasted on typical short runs.
    ext = np.flatnonzero(d >= cadence)
    if ext.size:
        keep[ext] |= (d[ext] % cadence) == 0
    return keep


def _run_vrf_stream(
    vrf,
    lines: np.ndarray,
    dirties: np.ndarray,
    emit_ops: np.ndarray,
    op_store: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Python twin of the compiled VRF walk (``repro/native/vrf_walk.c``):
    the reference the kernel is tested against and the path taken when
    it does not load.  Same contract as :func:`walk_vrf`.

    Mirrors ``VectorRegisterFile.access`` state-transition for
    state-transition, but inlined over the whole stream: the insertion
    order of ``vrf._tags`` IS the LRU order, a hit reinserts at MRU, a
    miss evicts the head, and any access that raises the dirty count
    past the high watermark immediately drains the oldest dirty lines
    to the low watermark (dirty count can only cross the watermark on
    an increment, so the drain check is needed on those paths only).
    """
    tags = vrf._tags
    pop = tags.pop
    cap = vrf.num_registers
    high = vrf._high
    low = vrf._low
    dc = vrf._dirty_count
    hits = misses = evc = evw = mwb = 0
    out_lines: List[int] = []
    out_ops: List[int] = []
    out_pos: List[int] = []
    lapp = out_lines.append
    oapp = out_ops.append
    papp = out_pos.append

    def drain(to_drain: int, pos: int) -> int:
        drained: List[int] = []
        for tagged_line, is_dirty in tags.items():
            if len(drained) >= to_drain:
                break
            if is_dirty:
                drained.append(tagged_line)
        for tagged_line in drained:
            tags[tagged_line] = False
            lapp(tagged_line)
            oapp(op_store)
            papp(pos)
        return len(drained)

    for pos, (line, dm, op) in enumerate(
        zip(lines.tolist(), dirties.tolist(), emit_ops.tolist())
    ):
        d = pop(line, None)
        if d is not None:
            hits += 1
            if d:
                tags[line] = True
                continue
            tags[line] = dm
        else:
            misses += 1
            if op >= 0:
                lapp(line)
                oapp(op)
                papp(pos)
            if len(tags) >= cap:
                evc += 1
                victim = next(iter(tags))
                if pop(victim):
                    dc -= 1
                    evw += 1
                    lapp(victim)
                    oapp(op_store)
                    papp(pos)
            tags[line] = dm
        if dm:
            dc += 1
            if dc > high:
                n_drained = drain(dc - low, pos)
                dc -= n_drained
                mwb += n_drained

    vrf._dirty_count = dc
    vrf.tag_hits += hits
    vrf.tag_misses += misses
    vrf.evictions += evc
    vrf.eviction_writebacks += evw
    vrf.manager_writebacks += mwb
    return (
        np.asarray(out_lines, dtype=np.int64),
        np.asarray(out_ops, dtype=np.int64),
        np.asarray(out_pos, dtype=np.int64),
    )


def walk_vrf(
    vrf,
    lines: np.ndarray,
    dirty: np.ndarray,
    emit: np.ndarray,
    op_store: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drive ``vrf`` over an access stream exactly as per-access
    ``VectorRegisterFile.access`` calls would, and return the memory
    requests it issues as ``(e_lines, e_ops, e_pos)``.

    Access ``i`` touches ``lines[i]``, marking it dirty when
    ``dirty[i]``; on a miss it loads the line with op ``emit[i]``
    unless that is ``_OP_NONE``.  Emissions come in scalar order (miss
    load, dirty victim store, Write-back Manager drain stores; stores
    carry ``op_store``) and ``e_pos`` holds the index of the access
    that issued each.  The VRF's tags, dirty count and five counters
    are updated in place.

    The compiled kernel runs when it loads on this host, else the
    Python twin :func:`_run_vrf_stream`; the results are identical.
    """
    native.check_stream(lines, dirty, emit)
    kernel = native.vrf_walk_kernel()
    if kernel is None:
        return _run_vrf_stream(vrf, lines, dirty, emit, op_store)
    tags = vrf._tags
    counts, final, e_lines, e_ops, e_pos = kernel(
        vrf.num_registers, vrf._high, vrf._low, tags, vrf._dirty_count,
        lines, dirty, emit, op_store,
    )
    hits, misses, evc, evw, mwb, dc = counts
    vrf.tag_hits += hits
    vrf.tag_misses += misses
    vrf.evictions += evc
    vrf.eviction_writebacks += evw
    vrf.manager_writebacks += mwb
    vrf._dirty_count = dc
    tags.clear()
    tags.update(final)
    return e_lines, e_ops, e_pos


def buffer_sparse_stream(pe, start_offset: int, nnz: int) -> None:
    """Vectorized Sparse Data Loader: append the tile's r_ids/c_ids/vals
    stream line ranges to the trace buffer as arrays."""
    counters = pe.counters
    idx_b = pe.init.sizeof_indices
    val_b = pe.init.sizeof_vals
    op = pe._op_sparse
    buf = pe._trace
    for region, elem_bytes in (
        ("sparse_r_ids", idx_b),
        ("sparse_c_ids", idx_b),
        ("sparse_vals", val_b),
    ):
        first, count = pe.address_map.stream_lines(
            region, start_offset * elem_bytes, nnz * elem_bytes
        )
        counters.sparse_line_reads += count
        buf.extend_range(first, count, op)


def _emit_chunks(
    pe,
    emissions: Tuple[np.ndarray, np.ndarray, np.ndarray],
    parts_nnz: Sequence[int],
    start_offsets: Sequence[int],
    kept_bounds: np.ndarray,
) -> List[Tuple[int, int]]:
    """Append each chunk's trace to ``pe._trace`` (its sparse stream
    ranges, then its slice of the epoch's VRF emissions) and return the
    chunks' ``(start, end)`` segments.  ``kept_bounds[i]`` is the
    stream position where chunk ``i`` starts."""
    e_lines, e_ops, e_pos = emissions
    e_bounds = np.searchsorted(e_pos, kept_bounds)
    buf = pe._trace
    segs: List[Tuple[int, int]] = []
    for ci, nnz in enumerate(parts_nnz):
        s0 = len(buf)
        buffer_sparse_stream(pe, start_offsets[ci], nnz)
        lo = int(e_bounds[ci])
        hi = int(e_bounds[ci + 1])
        buf.extend_arrays(e_lines[lo:hi], e_ops[lo:hi])
        segs.append((s0, len(buf)))
    return segs


def _concat(arrays: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if len(arrays) > 1 else arrays[0]


def generate_spmm_epoch(
    pe, parts: Sequence[Tuple[np.ndarray, np.ndarray, int]]
) -> List[Tuple[int, int]]:
    """Derive one PE's trace for a run of SpMM chunks in one pass and
    append it to ``pe._trace``; the trace twin of
    ``ProcessingElement.execute_spmm_chunk`` over each chunk in turn.

    ``parts`` lists the chunks as ``(r_ids, c_ids, start_offset)`` in
    dispatch order.  Per nonzero the scalar pipeline touches, in order,
    ``r+0, c+0, r+1, c+1, ...`` for ``lines_per_row`` line pairs; the
    rMatrix slot is read-modify-write (dirty), the cMatrix slot is
    read-only.  CSR runs of equal r_id make the rMatrix touches of
    elided nonzeros guaranteed dirty hits (see module docstring).
    Returns each chunk's ``(start, end)`` segment of ``pe._trace``."""
    if not parts:
        return []
    n_per = [len(p[0]) for p in parts]
    n = int(sum(n_per))
    r_all = _concat([p[0] for p in parts])
    c_all = _concat([p[1] for p in parts])
    amap = pe.address_map
    k = pe.init.dense_row_size
    lpr = pe.lines_per_row
    r_lines = amap.dense_row_base_lines("rmatrix", r_all, k)
    c_lines = amap.dense_row_base_lines("cmatrix", c_all, k)

    offs = np.arange(lpr, dtype=np.int64)
    cols = 2 * lpr
    lines_mat = np.empty((n, cols), dtype=np.int64)
    lines_mat[:, 0::2] = r_lines[:, None] + offs
    lines_mat[:, 1::2] = c_lines[:, None] + offs
    dirty_mat = np.empty((n, cols), dtype=bool)
    dirty_mat[:, 0::2] = True
    dirty_mat[:, 1::2] = False
    ops_mat = np.empty((n, cols), dtype=np.int64)
    ops_mat[:, 0::2] = pe._op_rmatrix_read
    ops_mat[:, 1::2] = pe._op_cmatrix_read

    cadence = _elision_cadence(
        pe.vrf, slots_per_nnz=cols, live_lines=lpr, dirty_live=lpr
    ) if n else 1
    b_nnz = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(n_per, out=b_nnz[1:])
    skipped = 0
    keep_r = None
    if cadence >= 2:
        keep_r = _run_keep_mask(r_lines, cadence)
        n_kept = int(keep_r.sum())
        if n_kept < n:
            skipped = (n - n_kept) * lpr
        else:
            keep_r = None
    if keep_r is not None:
        keep_mat = np.empty((n, cols), dtype=bool)
        keep_mat[:, 0::2] = keep_r[:, None]
        keep_mat[:, 1::2] = True
        stream_lines = lines_mat[keep_mat]
        stream_dirty = dirty_mat[keep_mat]
        stream_emit = ops_mat[keep_mat]
        kr_cs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(keep_r, out=kr_cs[1:])
        kept_bounds = lpr * (b_nnz + kr_cs[b_nnz])
    else:
        stream_lines = lines_mat.ravel()
        stream_dirty = dirty_mat.ravel()
        stream_emit = ops_mat.ravel()
        kept_bounds = cols * b_nnz

    emissions = walk_vrf(
        pe.vrf, stream_lines, stream_dirty, stream_emit, pe._op_store
    )
    pe.vrf.tag_hits += skipped
    counters = pe.counters
    counters.tops += n
    counters.vops += n * lpr
    pe._rmatrix_rows_touched.update(np.unique(r_all).tolist())
    return _emit_chunks(
        pe, emissions, n_per, [p[2] for p in parts], kept_bounds
    )


def generate_sddmm_epoch(
    pe,
    parts: Sequence[Tuple[np.ndarray, np.ndarray, int, np.ndarray]],
) -> List[Tuple[int, int]]:
    """SDDMM twin of :func:`generate_spmm_epoch`; ``parts`` entries are
    ``(r_ids, c_ids, start_offset, out_offsets)``.

    Per nonzero: ``lines_per_row`` read-only (r, c) line pairs followed
    by one write-only output-line touch (dirty, no load on miss).  Both
    the rMatrix CSR runs and the 16-nonzeros-per-line output runs are
    elidable."""
    if not parts:
        return []
    n_per = [len(p[0]) for p in parts]
    n = int(sum(n_per))
    r_all = _concat([p[0] for p in parts])
    c_all = _concat([p[1] for p in parts])
    out_all = np.concatenate(
        [np.asarray(p[3], dtype=np.int64) for p in parts]
    )
    amap = pe.address_map
    k = pe.init.dense_row_size
    lpr = pe.lines_per_row
    r_lines = amap.dense_row_base_lines("rmatrix", r_all, k)
    c_lines = amap.dense_row_base_lines("cmatrix", c_all, k)
    out_region = amap.regions["sparse_out_vals"]
    out_base_line = out_region.base // CACHE_LINE_BYTES
    out_lines = out_base_line + out_all // _OUT_VALS_PER_LINE

    cols = 2 * lpr + 1
    cadence = _elision_cadence(
        pe.vrf, slots_per_nnz=cols, live_lines=lpr + 1, dirty_live=1
    ) if n else 1
    b_nnz = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(n_per, out=b_nnz[1:])
    skipped = 0
    keep_r = keep_o = None
    if cadence >= 2:
        keep_r = _run_keep_mask(r_lines, cadence)
        keep_o = _run_keep_mask(out_lines, cadence)
        skipped_r = n - int(keep_r.sum())
        skipped_o = n - int(keep_o.sum())
        if skipped_r or skipped_o:
            skipped = skipped_r * lpr + skipped_o
        else:
            keep_r = keep_o = None
    if lpr == 1:
        # One line per dense row (the common k): build the access stream
        # directly with scatter indices, skipping the (n, cols)
        # intermediates and their boolean compaction.  Slot order per
        # nonzero is r, c, out — the same row-major order the matrix
        # path compacts in.
        if keep_r is not None:
            kr_cs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(keep_r, out=kr_cs[1:])
            ko_cs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(keep_o, out=ko_cs[1:])
            total = int(n + kr_cs[n] + ko_cs[n])
            # Kept-stream position of nonzero i's c slot: kept r slots
            # through i (inclusive) + c slots before i + kept out slots
            # before i.
            idx_c = kr_cs[1:] + np.arange(n, dtype=np.int64) + ko_cs[:n]
            stream_lines = np.empty(total, dtype=np.int64)
            stream_emit = np.empty(total, dtype=np.int64)
            stream_dirty = np.zeros(total, dtype=bool)
            stream_lines[idx_c] = c_lines
            stream_emit[idx_c] = pe._op_cmatrix_read
            idx_r = idx_c[keep_r] - 1
            stream_lines[idx_r] = r_lines[keep_r]
            stream_emit[idx_r] = pe._op_rmatrix_read
            idx_o = (idx_c + 1)[keep_o]
            stream_lines[idx_o] = out_lines[keep_o]
            stream_emit[idx_o] = _OP_NONE
            stream_dirty[idx_o] = True
            kept_bounds = b_nnz + kr_cs[b_nnz] + ko_cs[b_nnz]
        else:
            stream_lines = np.empty(3 * n, dtype=np.int64)
            stream_lines[0::3] = r_lines
            stream_lines[1::3] = c_lines
            stream_lines[2::3] = out_lines
            stream_emit = np.empty(3 * n, dtype=np.int64)
            stream_emit[0::3] = pe._op_rmatrix_read
            stream_emit[1::3] = pe._op_cmatrix_read
            stream_emit[2::3] = _OP_NONE
            stream_dirty = np.zeros(3 * n, dtype=bool)
            stream_dirty[2::3] = True
            kept_bounds = 3 * b_nnz
    else:
        offs = np.arange(lpr, dtype=np.int64)
        lines_mat = np.empty((n, cols), dtype=np.int64)
        lines_mat[:, 0 : 2 * lpr : 2] = r_lines[:, None] + offs
        lines_mat[:, 1 : 2 * lpr : 2] = c_lines[:, None] + offs
        lines_mat[:, -1] = out_lines
        dirty_mat = np.zeros((n, cols), dtype=bool)
        dirty_mat[:, -1] = True
        ops_mat = np.empty((n, cols), dtype=np.int64)
        ops_mat[:, 0 : 2 * lpr : 2] = pe._op_rmatrix_read
        ops_mat[:, 1 : 2 * lpr : 2] = pe._op_cmatrix_read
        ops_mat[:, -1] = _OP_NONE
        if keep_r is not None:
            keep_mat = np.empty((n, cols), dtype=bool)
            keep_mat[:, 0 : 2 * lpr : 2] = keep_r[:, None]
            keep_mat[:, 1 : 2 * lpr : 2] = True
            keep_mat[:, -1] = keep_o
            stream_lines = lines_mat[keep_mat]
            stream_dirty = dirty_mat[keep_mat]
            stream_emit = ops_mat[keep_mat]
            kr_cs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(keep_r, out=kr_cs[1:])
            ko_cs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(keep_o, out=ko_cs[1:])
            kept_bounds = (
                lpr * (b_nnz + kr_cs[b_nnz]) + ko_cs[b_nnz]
            )
        else:
            stream_lines = lines_mat.ravel()
            stream_dirty = dirty_mat.ravel()
            stream_emit = ops_mat.ravel()
            kept_bounds = cols * b_nnz

    emissions = walk_vrf(
        pe.vrf, stream_lines, stream_dirty, stream_emit, pe._op_store
    )
    pe.vrf.tag_hits += skipped
    counters = pe.counters
    counters.tops += n
    counters.vops += n * lpr
    counters.output_line_writes += n
    return _emit_chunks(
        pe, emissions, n_per, [p[2] for p in parts], kept_bounds
    )


