"""Vectorized trace generation for the PE layer.

The scalar executors in :mod:`repro.core.pe` walk every nonzero in
Python and push each operand through ``VectorRegisterFile.access``.
This module hands a PE's whole epoch to one call of the compiled entry
in :mod:`repro.native`: the tiled id arrays, read in place through a
chunk table of (input offset, count, output start), with the operands'
first lines and lines per row.  The entry derives each nonzero's dense
lines, checks them, assembles the VRF access stream, elides the
touches that are provably invisible hits, walks the VRF and writes the
trace; where no kernel loads, its Python twin
:func:`_trace_epoch_twin` walks the full unelided stream.  The
emitted ``(lines, ops)`` trace, the VRF state and counters, and
therefore everything downstream (replay, ``AccessStats``,
``PECounters``, timing) are bit-identical to the scalar oracle — the
parity suite in ``tests/test_execution_parity.py`` pins this per
access.

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
the skipped touches.  The compiled entry applies that rule; the twin
does not, so every comparison of the two checks the argument.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import native
from repro.config import CACHE_LINE_BYTES

_OUT_VALS_PER_LINE = CACHE_LINE_BYTES // 4

_OP_NONE = -1
"""Emission sentinel: a VRF miss that allocates without a memory read
(the SDDMM output slot is write-only)."""

class TraceBuffer:
    """Growable int64 ``(lines, ops)`` trace storage for one PE.

    Storage is preallocated and reused across epochs (each growth at
    least doubles it, or jumps straight to a larger request), the dtype
    is pinned to int64, and ``views()`` hands zero-copy slices to the
    replay call.
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
        cap = max(2 * cap, need)
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

    def storage(self, extra: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Reserve room for ``extra`` more entries and return the whole
        ``(lines, ops)`` storage with the current length: a writer
        fills entries from that length on, then calls :meth:`commit`."""
        self._reserve(extra)
        return self._lines, self._ops, self._n

    def commit(self, n: int) -> None:
        """Set the length after a writer filled :meth:`storage`."""
        self._n = n

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


def _run_vrf_stream(
    vrf,
    lines: np.ndarray,
    dirties: np.ndarray,
    emit_ops: np.ndarray,
    op_store: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drive ``vrf`` over an access stream exactly as per-access
    ``VectorRegisterFile.access`` calls would, and return the memory
    requests it issues as ``(e_lines, e_ops, e_pos)``.

    Access ``i`` touches ``lines[i]``, marking it dirty when
    ``dirties[i]``; on a miss it loads the line with op ``emit_ops[i]``
    unless that is ``_OP_NONE``.  Emissions come in scalar order (miss
    load, dirty victim store, Write-back Manager drain stores; stores
    carry ``op_store``) and ``e_pos`` holds the index of the access
    that issued each.  The VRF's tags, dirty count and five counters
    are updated in place.

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


def _sparse_ranges(pe, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sparse Data Loader: each chunk's ``(first, count)`` line ranges of
    the tile's r_ids, c_ids and vals streams, as a ``(chunks, 6)`` int64
    array; chunk ``k`` reads ``counts[k]`` elements from element
    ``starts[k]`` on.  The vectorized form of
    :meth:`~repro.memory.address.AddressMap.stream_lines`, with its
    check that no range runs past its region."""
    regions = pe.address_map.regions
    idx_b = pe.init.sizeof_indices
    out = np.zeros((starts.shape[0], 6), dtype=np.int64)
    for col, (name, elem_bytes) in enumerate((
        ("sparse_r_ids", idx_b),
        ("sparse_c_ids", idx_b),
        ("sparse_vals", pe.init.sizeof_vals),
    )):
        region = regions[name]
        at = starts * elem_bytes
        nbytes = counts * elem_bytes
        past = np.flatnonzero(at + nbytes > region.size)
        if past.shape[0]:
            k = int(past[0])
            raise ValueError(
                f"range [{int(at[k])}, {int(at[k] + nbytes[k])}) exceeds "
                f"region {name!r} of size {region.size}"
            )
        first = (region.base + at) // CACHE_LINE_BYTES
        last = (region.base + at + nbytes - 1) // CACHE_LINE_BYTES
        some = nbytes > 0
        out[:, 2 * col] = np.where(some, first, 0)
        out[:, 2 * col + 1] = np.where(some, last - first + 1, 0)
    return out


def _emit_chunks(
    pe,
    emissions: Tuple[np.ndarray, np.ndarray, np.ndarray],
    sparse: np.ndarray,
    bounds: np.ndarray,
) -> List[Tuple[int, int]]:
    """Append each chunk's trace to ``pe._trace`` (its sparse stream
    ranges, then its slice of the epoch's VRF emissions) and return the
    chunks' ``(start, end)`` segments.  ``bounds[i]`` is the stream
    position where chunk ``i`` starts."""
    e_lines, e_ops, e_pos = emissions
    e_bounds = np.searchsorted(e_pos, bounds).tolist()
    buf = pe._trace
    op = pe._op_sparse
    segs: List[Tuple[int, int]] = []
    for ci, row in enumerate(sparse.tolist()):
        s0 = len(buf)
        for first, count in zip(row[0::2], row[1::2]):
            buf.extend_range(first, count, op)
        lo, hi = e_bounds[ci], e_bounds[ci + 1]
        buf.extend_arrays(e_lines[lo:hi], e_ops[lo:hi])
        segs.append((s0, len(buf)))
    return segs


def _trace_epoch_twin(
    pe,
    r_lines: np.ndarray,
    c_lines: np.ndarray,
    chunk_nnz: np.ndarray,
    out_starts: Optional[np.ndarray],
    out_base: int,
    sparse: np.ndarray,
) -> List[Tuple[int, int]]:
    """Python twin of the compiled entry (``repro/native/vrf_walk.c``):
    the reference it is tested against and the path taken when it does
    not load.  It is the plain definition: the full, unelided access
    stream, walked by :func:`_run_vrf_stream` and cut into chunks by
    :func:`_emit_chunks`."""
    lpr = pe.lines_per_row
    n = r_lines.shape[0]
    cols = 2 * lpr + (out_starts is not None)
    offs = np.arange(lpr, dtype=np.int64)
    lines = np.empty((n, cols), dtype=np.int64)
    lines[:, 0 : 2 * lpr : 2] = r_lines[:, None] + offs
    lines[:, 1 : 2 * lpr : 2] = c_lines[:, None] + offs
    dirty = np.zeros((n, cols), dtype=bool)
    emit = np.empty((n, cols), dtype=np.int64)
    emit[:, 0 : 2 * lpr : 2] = pe._op_rmatrix_read
    emit[:, 1 : 2 * lpr : 2] = pe._op_cmatrix_read
    b_nnz = np.zeros(chunk_nnz.shape[0] + 1, dtype=np.int64)
    np.cumsum(chunk_nnz, out=b_nnz[1:])
    if out_starts is None:
        dirty[:, 0::2] = True  # the rMatrix slot is read-modify-write
    else:
        # The write-only output slot: dirty, no load on a miss.
        out_offs = np.arange(n, dtype=np.int64) + np.repeat(
            out_starts - b_nnz[:-1], chunk_nnz
        )
        lines[:, -1] = out_base + out_offs // _OUT_VALS_PER_LINE
        dirty[:, -1] = True
        emit[:, -1] = _OP_NONE
    emissions = _run_vrf_stream(
        pe.vrf, lines.ravel(), dirty.ravel(), emit.ravel(), pe._op_store
    )
    return _emit_chunks(pe, emissions, sparse, cols * b_nnz)


def _walk(
    pe,
    r_ids: np.ndarray,
    c_ids: np.ndarray,
    chunks: np.ndarray,
    starts: np.ndarray,
    sddmm: bool,
    bases: Tuple[int, int],
    stride: int,
    cadence: int,
) -> List[Tuple[int, int]]:
    """The one generation call :func:`trace_epoch` and the epoch
    generators share: append one PE-epoch's trace to ``pe._trace`` and
    return each chunk's ``(start, end)`` segment of it.

    Chunk ``k`` is row ``k`` of ``chunks``, (input offset, count, output
    start): the nonzeros ``[offset, offset + count)`` of ``r_ids`` and
    ``c_ids``, whose sparse streams start at element ``starts[k]``.
    Nonzero ``i``'s first rMatrix and cMatrix lines are ``bases[0] +
    r_ids[i] * stride`` and ``bases[1] + c_ids[i] * stride``; it touches,
    for each of ``pe.lines_per_row`` line pairs ``l``, the rMatrix line
    plus ``l`` then the cMatrix line plus ``l``.  With ``sddmm`` it then
    writes its output value into line ``(output start + j) // 16`` of
    the output region, ``j`` being its index in the chunk.
    ``cadence`` is the elision cadence of :func:`_elision_cadence` (1
    walks every touch).  Each chunk's trace is its sparse-stream line
    ranges, then the VRF's emissions for its nonzeros.  The inputs are
    checked before any walk (:func:`repro.native.check_epoch`, then the
    walk's first pass or its twin); a rejected epoch leaves the VRF and
    the trace untouched."""
    vrf = pe.vrf
    tags = vrf._tags
    lpr = pe.lines_per_row
    native.check_epoch(
        r_ids, c_ids, chunks, lpr, stride, cadence, vrf.num_registers,
        len(tags),
    )
    counts = chunks[:, 1]
    sparse = _sparse_ranges(pe, starts, counts)
    out_base = 0
    if sddmm:
        out_region = pe.address_map.regions["sparse_out_vals"]
        out_base = out_region.base // CACHE_LINE_BYTES
    kernel = native.vrf_epoch_kernel()
    if kernel is None:
        native.refuse_epoch(native.epoch_refusal(
            r_ids, c_ids, chunks, sddmm, bases, stride, lpr
        ))
        idx = np.concatenate([
            np.arange(off, off + cnt, dtype=np.int64)
            for off, cnt, _ in chunks.tolist()
        ] or [np.zeros(0, dtype=np.int64)])
        segs = _trace_epoch_twin(
            pe, bases[0] + r_ids[idx] * stride, bases[1] + c_ids[idx] * stride,
            np.ascontiguousarray(counts),
            np.ascontiguousarray(chunks[:, 2]) if sddmm else None,
            out_base, sparse,
        )
    else:
        counts_out, final, segs = kernel(
            vrf.num_registers, vrf._high, vrf._low, tags, vrf._dirty_count,
            r_ids, c_ids, chunks, sddmm, bases, stride, out_base, sparse,
            lpr, cadence,
            (pe._op_rmatrix_read, pe._op_cmatrix_read, pe._op_store,
             pe._op_sparse),
            pe._trace,
        )
        hits, misses, evc, evw, mwb, dc = counts_out
        vrf.tag_hits += hits
        vrf.tag_misses += misses
        vrf.evictions += evc
        vrf.eviction_writebacks += evw
        vrf.manager_writebacks += mwb
        vrf._dirty_count = dc
        tags.clear()
        tags.update(final)
    pe.counters.sparse_line_reads += int(sparse[:, 1::2].sum())
    return segs


def trace_epoch(
    pe,
    r_lines: np.ndarray,
    c_lines: np.ndarray,
    chunk_nnz: np.ndarray,
    starts: Sequence[int],
    out_starts: Optional[np.ndarray],
    cadence: int,
) -> List[Tuple[int, int]]:
    """Append one PE-epoch's trace to ``pe._trace`` from each nonzero's
    first lines, and return each chunk's ``(start, end)`` segment of it.

    The line form of :func:`_walk`: nonzero ``i``'s first rMatrix and
    cMatrix lines are ``r_lines[i]`` and ``c_lines[i]`` (1-D
    C-contiguous int64 of one length); ``chunk_nnz`` (1-D C-contiguous
    int64, summing to that length) splits them into consecutive chunks,
    whose sparse streams start at element ``starts[chunk]``; with
    ``out_starts`` (SDDMM; 1-D C-contiguous int64, one per chunk) chunk
    ``k``'s nonzeros write output values ``out_starts[k]``,
    ``out_starts[k] + 1``, ...  The inputs are checked before any walk;
    a rejected epoch leaves the VRF and the trace untouched."""
    native._require("r_lines", r_lines, np.int64)
    native._require("c_lines", c_lines, np.int64)
    native._require("chunk_nnz", chunk_nnz, np.int64)
    n_chunks = chunk_nnz.shape[0]
    if out_starts is not None:
        native._require("out_starts", out_starts, np.int64)
        if out_starts.shape != chunk_nnz.shape:
            raise ValueError("one output start offset per chunk")
    n = r_lines.shape[0]
    if int(chunk_nnz.sum()) != n:
        raise ValueError(f"chunk sizes do not sum to the {n} nonzeros")
    chunks = np.zeros((n_chunks, 3), dtype=np.int64)
    np.cumsum(chunk_nnz[:-1], out=chunks[1:, 0])
    chunks[:, 1] = chunk_nnz
    if out_starts is not None:
        chunks[:, 2] = out_starts
    return _walk(
        pe, r_lines, c_lines, chunks, np.asarray(starts, dtype=np.int64),
        out_starts is not None, (0, 0), 1, cadence,
    )


def _generate(
    pe, r_ids: np.ndarray, c_ids: np.ndarray, chunks: np.ndarray,
    sddmm: bool, cadence: int,
) -> List[Tuple[int, int]]:
    """The :func:`_walk` call the two generators share, with the
    tOp/vOp counts: a chunk's sparse streams start at its input
    offset, and its dense lines follow from the address map."""
    amap = pe.address_map
    lpr = pe.lines_per_row
    bases = tuple(
        amap.regions[name].base // CACHE_LINE_BYTES
        for name in ("rmatrix", "cmatrix")
    )
    segs = _walk(
        pe, r_ids, c_ids, chunks, chunks[:, 0], sddmm, bases, lpr, cadence
    )
    nnz = int(chunks[:, 1].sum())
    counters = pe.counters
    counters.tops += nnz
    counters.vops += nnz * lpr
    if sddmm:
        counters.output_line_writes += nnz
    return segs


def generate_spmm_epoch(
    pe, r_ids: np.ndarray, c_ids: np.ndarray, chunks: np.ndarray
) -> List[Tuple[int, int]]:
    """Derive one PE's trace for a run of SpMM chunks in one pass and
    append it to ``pe._trace``; the trace twin of
    ``ProcessingElement.execute_spmm_chunk`` over each chunk in turn.

    ``r_ids``/``c_ids`` are the tiled id arrays, read in place;
    ``chunks`` is the int64 ``(chunks, 3)`` table of (input offset,
    count, output start) in dispatch order, the output start unused
    here.  A chunk's ids are ``r_ids[offset : offset + count]`` and its
    sparse streams start at element ``offset``.  Per nonzero the scalar
    pipeline touches, in order, ``r+0, c+0, r+1, c+1, ...`` for
    ``lines_per_row`` line pairs; the rMatrix slot is read-modify-write
    (dirty), the cMatrix slot is read-only.  CSR runs of equal r_id
    make the rMatrix touches of elided nonzeros guaranteed dirty hits
    (see module docstring).  Returns each chunk's ``(start, end)``
    segment of ``pe._trace``."""
    if not chunks.shape[0]:
        return []
    lpr = pe.lines_per_row
    return _generate(pe, r_ids, c_ids, chunks, False, _elision_cadence(
        pe.vrf, slots_per_nnz=2 * lpr, live_lines=lpr, dirty_live=lpr
    ))


def generate_sddmm_epoch(
    pe, r_ids: np.ndarray, c_ids: np.ndarray, chunks: np.ndarray
) -> List[Tuple[int, int]]:
    """SDDMM twin of :func:`generate_spmm_epoch`: chunk ``k``'s nonzeros
    write output values ``out, out + 1, ...`` from its output start
    ``out`` (the table's third column) on.

    Per nonzero: ``lines_per_row`` read-only (r, c) line pairs followed
    by one write-only output-line touch (dirty, no load on miss).  Both
    the rMatrix CSR runs and the 16-nonzeros-per-line output runs are
    elidable."""
    if not chunks.shape[0]:
        return []
    lpr = pe.lines_per_row
    return _generate(pe, r_ids, c_ids, chunks, True, _elision_cadence(
        pe.vrf, slots_per_nnz=2 * lpr + 1, live_lines=lpr + 1,
        dirty_live=1,
    ))
