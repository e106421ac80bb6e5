"""Vectorized trace generation for the PE layer.

The scalar executors in :mod:`repro.core.pe` walk every nonzero in
Python and push each operand through ``VectorRegisterFile.access``.
This module hands a PE's whole epoch to one call of the compiled entry
in :mod:`repro.native`: the tiled id arrays, read in place through a
chunk table of (input offset, count, output start), with the operands'
first lines and lines per row.  The entry derives each nonzero's dense
lines, checks them, assembles the VRF access stream, elides the
touches that are provably invisible hits, walks the VRF and writes the
trace.  There is no Python twin: where the library does not load, the
engine runs the scalar executors instead, and a generator called here
raises.  The emitted ``(lines, ops)`` trace, the VRF state and
counters, and therefore everything downstream (replay,
``AccessStats``, ``PECounters``, timing) are bit-identical to the
scalar oracle: ``tests/test_core_vectorized_solver.py`` holds the
entry to the scalar executors epoch by epoch, and
``tests/test_execution_parity.py`` holds whole runs to them.

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
the skipped touches.  The compiled entry applies that rule; the scalar
executors walk every touch, so every comparison with them checks the
argument.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro import native
from repro.config import CACHE_LINE_BYTES


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


def _generate(
    pe, r_ids: np.ndarray, c_ids: np.ndarray, chunks: np.ndarray,
    sddmm: bool, cadence: int,
) -> List[Tuple[int, int]]:
    """The one generation call the two epoch generators share: append
    one PE-epoch's trace to ``pe._trace`` and return each chunk's
    ``(start, end)`` segment of it.

    Chunk ``k`` is row ``k`` of ``chunks``, (input offset, count, output
    start): the nonzeros ``[offset, offset + count)`` of ``r_ids`` and
    ``c_ids``, whose sparse streams start at element ``offset``.
    Nonzero ``i``'s first rMatrix and cMatrix lines are its rows' first
    lines in the address map, ``base + r_ids[i] * lpr`` and ``base +
    c_ids[i] * lpr`` (``lpr = pe.lines_per_row``); it touches, for each
    of ``lpr`` line pairs ``l``, the rMatrix line plus ``l`` then the
    cMatrix line plus ``l``.  With ``sddmm`` it then writes its output
    value into line ``(output start + j) // 16`` of the output region,
    ``j`` being its index in the chunk.  ``cadence`` is the elision
    cadence of :func:`_elision_cadence` (1 walks every touch).  Each
    chunk's trace is its sparse-stream line ranges, then the VRF's
    emissions for its nonzeros; the chunks' tOps, vOps, sparse line
    reads and SDDMM output writes go into ``pe.counters``.

    Without the compiled library this raises
    :class:`repro.native.NativeUnavailable` and touches nothing (the
    engine runs the scalar executors instead).  The inputs are checked
    before any walk (:func:`repro.native.check_epoch`, then the entry's
    first pass); a rejected epoch leaves the VRF, the trace and the
    counters untouched."""
    kernel = native.vrf_epoch_kernel()
    if kernel is None:
        raise native.NativeUnavailable(
            "vectorized trace generation needs the compiled library; "
            "without it the engine runs the scalar executors"
        )
    vrf = pe.vrf
    tags = vrf._tags
    lpr = pe.lines_per_row
    native.check_epoch(
        r_ids, c_ids, chunks, lpr, lpr, cadence, vrf.num_registers,
        len(tags),
    )
    counts = chunks[:, 1]
    sparse = _sparse_ranges(pe, chunks[:, 0], counts)
    regions = pe.address_map.regions
    bases = tuple(
        regions[name].base // CACHE_LINE_BYTES
        for name in ("rmatrix", "cmatrix")
    )
    out_base = (
        regions["sparse_out_vals"].base // CACHE_LINE_BYTES if sddmm else 0
    )
    counts_out, final, segs = kernel(
        vrf.num_registers, vrf._high, vrf._low, tags, vrf._dirty_count,
        r_ids, c_ids, chunks, sddmm, bases, lpr, out_base, sparse,
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
    nnz = int(counts.sum())
    counters = pe.counters
    counters.sparse_line_reads += int(sparse[:, 1::2].sum())
    counters.tops += nnz
    counters.vops += nnz * lpr
    if sddmm:
        counters.output_line_writes += nnz
    return segs


def generate_spmm_epoch(
    pe, r_ids: np.ndarray, c_ids: np.ndarray, chunks: np.ndarray
) -> List[Tuple[int, int]]:
    """Derive one PE's trace for a run of SpMM chunks in one pass and
    append it to ``pe._trace``: the trace that
    ``ProcessingElement.execute_spmm_chunk`` issues over each chunk in
    turn.

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
    """The SDDMM form of :func:`generate_spmm_epoch`: chunk ``k``'s nonzeros
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
