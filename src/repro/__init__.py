"""repro: a from-scratch Python reproduction of SPADE (ISCA 2023).

SPADE is a flexible, scalable hardware accelerator for SpMM and SDDMM
that tightly couples accelerator PEs with the cores of a multicore.
This package simulates the full system — tile ISA, CPE scheduler, PE
pipelines, the shared cache/DRAM hierarchy — plus the paper's baselines
(CPU, GPU, ideal Sextans), an area/power model, and a benchmark harness
that regenerates every table and figure of the evaluation.

Quick start::

    import numpy as np
    from repro import SpadeSystem, KernelSettings
    from repro.sparse.generators import rmat_graph

    a = rmat_graph(scale=10)
    b = np.random.rand(a.num_cols, 32).astype(np.float32)
    report = SpadeSystem.scaled(num_pes=8).spmm(a, b)
    print(f"{report.time_ms:.3f} ms, {report.dram_accesses} DRAM accesses")
"""

from repro.config import (
    SpadeConfig,
    mini_config,
    paper_config,
    scaled_config,
)
from repro.core.accelerator import (
    ExecutionReport,
    KernelSettings,
    SpadeSystem,
    sddmm_output_to_coo,
)
from repro.core.extensions import sddvv, spmv
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

__version__ = "1.0.0"

__all__ = [
    "SpadeSystem",
    "KernelSettings",
    "ExecutionReport",
    "SpadeConfig",
    "paper_config",
    "scaled_config",
    "mini_config",
    "COOMatrix",
    "CSRMatrix",
    "sddmm_output_to_coo",
    "spmv",
    "sddvv",
    "__version__",
]
