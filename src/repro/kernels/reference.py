"""Golden numpy implementations of SpMM and SDDMM (Section 2.1).

SpMM:   D = A @ B          (A sparse MxN, B dense NxK, D dense MxK)
SDDMM:  D = A o (B @ C^T)  (A sparse MxN, B dense MxK, C dense NxK;
                            o = elementwise product on A's nonzeros)

In the paper's terminology: for SpMM the *rMatrix* is D (indexed by
r_id) and the *cMatrix* is B (indexed by c_id); for SDDMM the rMatrix is
B and the cMatrix is C^T.
"""

from __future__ import annotations

import numpy as np

from repro import native
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def _dots(
    b64: np.ndarray, c64: np.ndarray, r_ids: np.ndarray, c_ids: np.ndarray
) -> np.ndarray:
    """``sum_j b64[r_ids[i], j] * c64[c_ids[i], j]`` for each ``i``, in
    float64, summed left to right over ``j`` from 0.0: one rounded
    multiply and one rounded add per term (DESIGN.md section 10).  The
    order is fixed, so the sums are the same on every host, unlike
    ``einsum``'s, which depend on its SIMD dispatch."""
    inner = np.zeros(r_ids.shape[0], dtype=np.float64)
    for j in range(b64.shape[1]):
        inner += b64[r_ids, j] * c64[c_ids, j]
    return inner


def _check_operands(a: COOMatrix, b: np.ndarray, name: str) -> None:
    if b.ndim != 2:
        raise ValueError(f"{name} must be 2-D")


def spmm_reference(a: COOMatrix, b: np.ndarray) -> np.ndarray:
    """Dense result of ``a @ b``.

    Accumulates in float64 and returns float32, so the result is a
    stable reference regardless of nonzero ordering (the simulator's
    out-of-order accumulation is associativity-tolerant, Section 5.1).
    """
    b = np.asarray(b, dtype=np.float32)
    _check_operands(a, b, "B")
    if b.shape[0] != a.num_cols:
        raise ValueError(
            f"B has {b.shape[0]} rows; expected {a.num_cols}"
        )
    out = np.zeros((a.num_rows, b.shape[1]), dtype=np.float64)
    np.add.at(
        out,
        a.r_ids,
        a.vals[:, None].astype(np.float64) * b[a.c_ids].astype(np.float64),
    )
    return out.astype(np.float32)


def sddmm_reference(
    a: COOMatrix, b: np.ndarray, c: np.ndarray
) -> COOMatrix:
    """Sparse result of ``A o (B @ C^T)`` with A's nonzero structure.

    ``b`` is MxK (rMatrix, indexed by r_id); ``c`` is NxK, so ``c.T`` is
    the KxN cMatrix indexed by c_id, matching Figure 1.
    """
    b = np.asarray(b, dtype=np.float32)
    c = np.asarray(c, dtype=np.float32)
    _check_operands(a, b, "B")
    _check_operands(a, c, "C")
    if b.shape[0] != a.num_rows:
        raise ValueError(f"B has {b.shape[0]} rows; expected {a.num_rows}")
    if c.shape[0] != a.num_cols:
        raise ValueError(f"C has {c.shape[0]} rows; expected {a.num_cols}")
    if b.shape[1] != c.shape[1]:
        raise ValueError("B and C must share the dense row size K")
    inner = _dots(
        b.astype(np.float64), c.astype(np.float64), a.r_ids, a.c_ids
    )
    vals = (a.vals.astype(np.float64) * inner).astype(np.float32)
    return COOMatrix.trusted(a.num_rows, a.num_cols, a.r_ids, a.c_ids, vals)


def spmm_chunk_update(
    d_accum: np.ndarray,
    r_ids: np.ndarray,
    c_ids: np.ndarray,
    vals: np.ndarray,
    b64: np.ndarray,
    segments: np.ndarray,
) -> None:
    """Scatter-accumulate SpMM nonzeros into ``d_accum`` (float64, in
    place): the chunks of ``segments``, an int64 ``(n, 3)`` table whose
    rows are (input offset, count, output start) in dispatch order.  The
    output start is the SDDMM merge's and is not read here.

    This is the engine's functional kernel, one call per epoch (one per
    chunk under scalar execution).  It runs the compiled merge
    (``repro/native/spmm_merge.c``) when the kernel library loads, and
    its twin, ``np.add.at`` segment by segment, otherwise.  Both perform
    the same operations in the same order: for each nonzero ``i`` in
    segment order and each column ``j``, the product
    ``float64(vals[i]) * b64[c_ids[i], j]`` rounded once, then added to
    ``d_accum[r_ids[i], j]`` and rounded once (the C build forbids a
    fused multiply-add).  Rows hit by several nonzeros therefore
    accumulate in nonzero order on either path, and the float32 result
    is identical whichever execution backend generated the chunks'
    traces, as long as the chunks are applied in the round-robin
    schedule order.

    The table is checked whole before anything is written
    (:func:`repro.native.check_spmm_merge`, then the C merge or
    :func:`repro.native.merge_refusal`): a bad one raises the same
    error on either path and leaves ``d_accum`` untouched.
    """
    native.check_spmm_merge(d_accum, r_ids, c_ids, vals, b64, segments)
    kernels = native.kernels()
    if kernels is not None:
        kernels.spmm_merge(d_accum, r_ids, c_ids, vals, b64, segments)
        return
    why = native.merge_refusal(segments, (
        ("r_ids", r_ids, d_accum.shape[0]), ("c_ids", c_ids, b64.shape[0]),
    ))
    if why is not None:
        raise IndexError(why)
    for off, cnt, _ in segments.tolist():
        part = slice(off, off + cnt)
        np.add.at(
            d_accum, r_ids[part],
            vals[part, None].astype(np.float64) * b64[c_ids[part]],
        )


def sddmm_chunk_vals(
    out_vals: np.ndarray,
    r_ids: np.ndarray,
    c_ids: np.ndarray,
    vals: np.ndarray,
    b64: np.ndarray,
    c64: np.ndarray,
    segments: np.ndarray,
) -> None:
    """Segment dot products for SDDMM nonzeros, written into
    ``out_vals`` (float64, in place): the chunks of ``segments``, an
    int64 ``(n, 3)`` table whose rows are (input offset, count, output
    start).  A chunk's output slots are contiguous in the padded layout,
    from its output start on.  Slots are unique per nonzero, so chunk
    application order cannot change the result.

    This is the engine's functional kernel, one call per epoch (one per
    chunk under scalar execution).  It runs the compiled merge
    (``repro/native/sddmm_merge.c``) when the kernel library loads, and
    its twin, segment by segment, otherwise.  Both compute, for each
    nonzero ``i``, ``float64(vals[i]) * sum_j b64[r_ids[i], j] *
    c64[c_ids[i], j]`` with the sum taken left to right over ``j``
    (:func:`_dots`), so the bytes are the same on either path and on
    every host.

    The table is checked whole before anything is written
    (:func:`repro.native.check_sddmm_merge`, then the C merge or
    :func:`repro.native.merge_refusal`): a bad one raises the same
    error on either path and leaves ``out_vals`` untouched.
    """
    native.check_sddmm_merge(out_vals, r_ids, c_ids, vals, b64, c64, segments)
    kernels = native.kernels()
    if kernels is not None:
        kernels.sddmm_merge(out_vals, r_ids, c_ids, vals, b64, c64, segments)
        return
    why = native.merge_refusal(segments, (
        ("r_ids", r_ids, b64.shape[0]), ("c_ids", c_ids, c64.shape[0]),
    ), out_vals.shape[0])
    if why is not None:
        raise IndexError(why)
    for off, cnt, at in segments.tolist():
        part = slice(off, off + cnt)
        out_vals[at : at + cnt] = (
            vals[part].astype(np.float64)
            * _dots(b64, c64, r_ids[part], c_ids[part])
        )


def spmm_reference_csr(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Row-by-row CSR SpMM, as a CPU-baseline-shaped reference."""
    b = np.asarray(b, dtype=np.float32)
    out = np.zeros((a.num_rows, b.shape[1]), dtype=np.float64)
    for row in range(a.num_rows):
        cols, vals = a.row_slice(row)
        if len(cols):
            out[row] = (vals[:, None].astype(np.float64)
                        * b[cols].astype(np.float64)).sum(axis=0)
    return out.astype(np.float32)
