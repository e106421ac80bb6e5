"""Shared analytic traffic estimation for the baseline machines.

The baselines (CPU, GPU, Sextans) are roofline models: execution time is
the larger of the compute time and the memory time, where the memory
time is (estimated DRAM traffic) / (effective bandwidth).  The traffic
estimate here is the standard capacity-based one: a dense operand whose
touched footprint fits in the machine's last-level cache is read once;
beyond that, the excess requests miss in proportion to how far the
footprint exceeds capacity.

This deliberately mirrors what drives the paper's results: low-RU
matrices are bandwidth-bound everywhere, while high-RU matrices reward
machines whose cache can hold the hot dense rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CACHE_LINE_BYTES
from repro.memory.address import padded_row_bytes
from repro.sparse.coo import COOMatrix


@dataclass(frozen=True)
class TrafficEstimate:
    """Estimated DRAM traffic of one kernel execution, in bytes."""

    sparse_bytes: int
    rmatrix_bytes: int
    cmatrix_bytes: int
    output_bytes: int

    @property
    def total_bytes(self) -> int:
        return (
            self.sparse_bytes
            + self.rmatrix_bytes
            + self.cmatrix_bytes
            + self.output_bytes
        )


def dense_operand_traffic(
    touched_rows: int,
    requests: int,
    row_bytes: int,
    cache_bytes: float,
) -> int:
    """Capacity-only traffic estimate for a gathered dense operand.

    Footprint <= cache: every row is fetched exactly once (compulsory
    misses only).  Beyond capacity, the fraction of the footprint that
    does not fit misses again on reuse.  Prefer
    :func:`gathered_traffic`, which also credits *local* reuse.
    """
    footprint = touched_rows * row_bytes
    compulsory = footprint
    if footprint <= cache_bytes or requests <= touched_rows:
        return compulsory
    miss_rate = 1.0 - cache_bytes / footprint
    reuse_requests = requests - touched_rows
    return int(compulsory + reuse_requests * row_bytes * miss_rate)


def gathered_traffic(
    access_rows: np.ndarray,
    gather_ids: np.ndarray,
    row_bytes: int,
    cache_bytes: float,
) -> int:
    """Windowed-LRU traffic estimate for a gathered dense operand.

    A row-ordered kernel (CSR CPU, batched GPU) gathers
    ``gather_ids[i]`` while processing output row ``access_rows[i]``.
    An LRU cache of ``cache_bytes`` captures any repeat of a gather id
    whose reuse distance fits in the cache.  We approximate LRU by
    windowing: split execution into windows of ``w`` consecutive output
    rows and charge one fetch per *distinct* gather id per window,
    picking the largest ``w`` whose per-window distinct footprint still
    fits the cache.  This credits the community/banded local reuse that
    a pure capacity model misses.
    """
    n = len(gather_ids)
    if n == 0:
        return 0
    access_rows = np.asarray(access_rows, dtype=np.int64)
    gather_ids = np.asarray(gather_ids, dtype=np.int64)
    num_rows = int(access_rows.max()) + 1
    max_gather = int(gather_ids.max()) + 1
    capacity_rows = max(1, int(cache_bytes // row_bytes))

    best_traffic = None
    w = 1
    while True:
        window = access_rows // w
        key = window * max_gather + gather_ids
        key.sort()
        distinct = 1 + int(np.count_nonzero(key[1:] != key[:-1]))
        num_windows = int(window.max()) + 1
        avg_per_window = distinct / num_windows
        if avg_per_window <= capacity_rows or best_traffic is None:
            best_traffic = distinct * row_bytes
        else:
            break
        if w >= num_rows:
            break
        w *= 4
    return int(best_traffic)


def spmm_traffic(
    a: COOMatrix,
    k: int,
    cache_bytes: float,
    sparse_bytes_per_nnz: int = 12,
) -> TrafficEstimate:
    """DRAM traffic of one SpMM on a cache of ``cache_bytes``.

    The sparse stream is read once.  B (the cMatrix) is gathered by
    column index and filtered by the cache; D (the rMatrix) has strong
    row locality under row-ordered execution, so it is written once
    (write-allocate: one read + one write per line).
    """
    row_bytes = padded_row_bytes(k)
    order = np.argsort(a.r_ids, kind="stable")
    b_traffic = gathered_traffic(
        a.r_ids[order], a.c_ids[order], row_bytes, cache_bytes
    )
    d_rows = a.num_rows
    d_traffic = 2 * d_rows * row_bytes  # read-modify-write once per row
    return TrafficEstimate(
        sparse_bytes=a.nnz * sparse_bytes_per_nnz,
        rmatrix_bytes=d_traffic,
        cmatrix_bytes=b_traffic,
        output_bytes=0,
    )


def sddmm_traffic(
    a: COOMatrix,
    k: int,
    cache_bytes: float,
    sparse_bytes_per_nnz: int = 12,
) -> TrafficEstimate:
    """DRAM traffic of one SDDMM on a cache of ``cache_bytes``.

    Both dense operands are gathered (B by r_id with good locality in
    row order, C by c_id irregularly); the output vals stream out once.
    """
    row_bytes = padded_row_bytes(k)
    touched_rows = int(np.count_nonzero(a.row_nnz_counts()))
    # Row-ordered execution gives B near-perfect reuse within a row.
    b_traffic = touched_rows * row_bytes
    order = np.argsort(a.r_ids, kind="stable")
    c_traffic = gathered_traffic(
        a.r_ids[order], a.c_ids[order], row_bytes, cache_bytes
    )
    out_lines = -(-a.nnz * 4 // CACHE_LINE_BYTES)
    return TrafficEstimate(
        sparse_bytes=a.nnz * sparse_bytes_per_nnz,
        rmatrix_bytes=b_traffic,
        cmatrix_bytes=c_traffic,
        output_bytes=out_lines * CACHE_LINE_BYTES,
    )


def kernel_flops(a: COOMatrix, k: int) -> int:
    """Floating-point operations of SpMM or SDDMM: one multiply and one
    add per nonzero per dense column."""
    return 2 * a.nnz * k
