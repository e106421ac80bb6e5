"""Extension primitives (Section 9, future work).

The paper notes that SPADE "can already support Sparse Matrix Vector
Multiplication (SpMV) and Sampled Dense Vector-Dense Vector
Multiplication (SDDVV)" without modification: they are the K=1 cases of
SpMM and SDDMM.  Because SPADE pads dense rows to cache-line multiples
(Section 4.3), a vector behaves as a dense matrix with one line per
row; the pipeline, scheduling, and bypass machinery are reused as-is.

These wrappers map the vector kernels onto the existing system and
unpack the padded results.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.accelerator import (
    ExecutionReport,
    KernelSettings,
    SpadeSystem,
    sddmm_output_to_coo,
)
from repro.sparse.coo import COOMatrix


def spmv(
    system: SpadeSystem,
    a: COOMatrix,
    x: np.ndarray,
    settings: Optional[KernelSettings] = None,
) -> tuple[np.ndarray, ExecutionReport]:
    """Sparse matrix-vector product y = A @ x on SPADE.

    Returns ``(y, report)`` where ``y`` has shape ``(num_rows,)``.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 1 or len(x) != a.num_cols:
        raise ValueError(f"x must have shape ({a.num_cols},)")
    report = system.spmm(a, x[:, None], settings)
    return report.output[:, 0], report


def sddvv(
    system: SpadeSystem,
    a: COOMatrix,
    u: np.ndarray,
    v: np.ndarray,
    settings: Optional[KernelSettings] = None,
) -> tuple[COOMatrix, ExecutionReport]:
    """Sampled dense-vector dense-vector product on SPADE.

    Computes the sparse matrix with ``D[i, j] = A[i, j] * u[i] * v[j]``
    on A's nonzero structure — the K=1 SDDMM.  Returns ``(D, report)``.
    """
    u = np.asarray(u, dtype=np.float32)
    v = np.asarray(v, dtype=np.float32)
    if u.ndim != 1 or len(u) != a.num_rows:
        raise ValueError(f"u must have shape ({a.num_rows},)")
    if v.ndim != 1 or len(v) != a.num_cols:
        raise ValueError(f"v must have shape ({a.num_cols},)")
    report = system.sddmm(a, u[:, None], v[:, None], settings)
    return sddmm_output_to_coo(report.schedule.tiled, report.output), report
