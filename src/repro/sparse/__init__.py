"""Sparse matrix substrate: formats, tiling, and the benchmark suite.

SPADE consumes sparse matrices in COO format, reordered into the tiled
layout of Appendix A.  This package provides:

- :mod:`repro.sparse.coo` / :mod:`repro.sparse.csr` — storage formats,
- :mod:`repro.sparse.tiled` — the tiled-COO layout with its metadata,
- :mod:`repro.sparse.generators` — synthetic stand-ins for the ten
  SuiteSparse graphs of Table 2,
- :mod:`repro.sparse.suite` — the scaled benchmark suite,
- :mod:`repro.sparse.analysis` — reuse / restructuring-utility analysis.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.tiled import TiledMatrix, tile_matrix

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "TiledMatrix",
    "tile_matrix",
]
