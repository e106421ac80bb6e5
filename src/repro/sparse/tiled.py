"""Tiled sparse-matrix layout (Appendix A of the paper).

A matrix is partitioned into tiles of ``row_panel_size`` x
``col_panel_size``.  The COO entry arrays are reordered so that each
tile's entries are contiguous, and the tile table is attached: five
int64 arrays with one element per non-empty tile, in layout order, each
named as in Appendix A:

- ``sparse_in_start_offset`` — offset of each tile's first nonzero in the
  reordered ``r_ids``/``c_ids``/``vals`` arrays,
- ``tile_nnz_num`` — nonzeros per tile,
- ``sparse_out_start_offset`` — for SDDMM, the offset of each tile's
  first output value in the output ``vals`` array.  Output tiles are
  padded to cache-line boundaries (Section 4.3: "the first nonzero value
  of each tile in the output sparse matrix must be at the beginning of a
  cache line"),
- ``tile_row_panel_id`` — which row panel each tile belongs to, needed so
  the CPE can assign all tiles of a row panel to the same PE (SpMM data
  races, Section 4.3),
- ``tile_col_panel_id`` — which column panel each tile belongs to, used
  by the scheduling-barrier scheduler (Figure 5b).

A tile is named by its index into these arrays.  Empty tiles are dropped
from the layout (they occupy no metadata).  Within a tile, nonzeros keep
row-major order, matching Figure 15(b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import native
from repro.config import CACHE_LINE_BYTES, FLOAT_BYTES
from repro.sparse.coo import COOMatrix

_OUT_VALS_PER_LINE = CACHE_LINE_BYTES // FLOAT_BYTES


@dataclass
class TiledMatrix:
    """A sparse matrix reordered into the Appendix A tiled layout."""

    num_rows: int
    num_cols: int
    row_panel_size: int
    col_panel_size: int
    r_ids: np.ndarray
    c_ids: np.ndarray
    vals: np.ndarray
    sparse_in_start_offset: np.ndarray
    tile_nnz_num: np.ndarray
    sparse_out_start_offset: np.ndarray
    tile_row_panel_id: np.ndarray
    tile_col_panel_id: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def num_tiles(self) -> int:
        return len(self.tile_nnz_num)

    @property
    def num_row_panels(self) -> int:
        return -(-self.num_rows // self.row_panel_size)

    @property
    def num_col_panels(self) -> int:
        return -(-self.num_cols // self.col_panel_size)

    @property
    def out_vals_length(self) -> int:
        """Length of the SDDMM output ``vals`` array including the
        per-tile cache-line alignment padding."""
        if not self.num_tiles:
            return 0
        return int(
            self.sparse_out_start_offset[-1]
            + _pad_to_line(self.tile_nnz_num[-1])
        )

    def to_coo(self) -> COOMatrix:
        """Recover the (unordered) COO matrix."""
        return COOMatrix.trusted(
            self.num_rows, self.num_cols, self.r_ids, self.c_ids, self.vals
        )

    def validate(self) -> None:
        """Check layout invariants: contiguous tiles, entries in-panel."""
        nnz = self.tile_nnz_num
        rp, cp = self.tile_row_panel_id, self.tile_col_panel_id
        padded = _pad_to_line(nnz)
        if np.any(self.sparse_in_start_offset != np.cumsum(nnz) - nnz):
            raise ValueError("tiles are not contiguous in entry arrays")
        if np.any(
            self.sparse_out_start_offset != np.cumsum(padded) - padded
        ):
            raise ValueError("output offsets are not line-aligned")
        if np.any(nnz <= 0):
            raise ValueError("empty tile present in layout")
        by_key = np.lexsort((cp, rp))
        dup = np.flatnonzero(
            (np.diff(rp[by_key]) == 0) & (np.diff(cp[by_key]) == 0)
        )
        if dup.size:
            t = by_key[dup[0]]
            raise ValueError(f"duplicate tile {(int(rp[t]), int(cp[t]))}")
        if int(nnz.sum()) != self.nnz:
            raise ValueError("tile nnz sum does not cover all entries")
        if np.any(self.r_ids // self.row_panel_size != np.repeat(rp, nnz)):
            raise ValueError("entry outside its row panel")
        if np.any(self.c_ids // self.col_panel_size != np.repeat(cp, nnz)):
            raise ValueError("entry outside its column panel")

    def __repr__(self) -> str:
        return (
            f"TiledMatrix({self.num_rows}x{self.num_cols}, nnz={self.nnz}, "
            f"RP={self.row_panel_size}, CP={self.col_panel_size}, "
            f"tiles={self.num_tiles})"
        )


def _pad_to_line(n_vals):
    """Round output-value counts (an int or an array) up to a whole
    number of cache lines."""
    return -(-n_vals // _OUT_VALS_PER_LINE) * _OUT_VALS_PER_LINE


def _order_twin(
    r_ids: np.ndarray,
    c_ids: np.ndarray,
    vals: np.ndarray,
    num_rows: int,
    num_cols: int,
    row_panel_size: int,
    col_panel_size: int,
):
    """The twin of the compiled tiler (``repro/native/tile.c``), by
    ``np.lexsort``: the entries in tiled order and the tile table, as
    ``(r_ids, c_ids, vals, tile starts, tile ids)``, each non-empty
    tile's first entry and its id ``rp * n_cp + cp``.  Entries already
    in tiled order come back as the input arrays themselves.  Ids past
    int64 (a grid of ``2**63`` tiles or more) come as Python ints.
    Raises ``ValueError`` for an entry outside the matrix."""
    n = r_ids.shape[0]
    if n and (
        int(r_ids.min()) < 0 or int(r_ids.max()) >= num_rows
        or int(c_ids.min()) < 0 or int(c_ids.max()) >= num_cols
    ):
        raise ValueError("an entry lies outside the matrix")
    rp = r_ids // row_panel_size
    cp = c_ids // col_panel_size
    order = np.lexsort((c_ids, r_ids, cp, rp))
    n_cp = -(-num_cols // col_panel_size)
    if -(-num_rows // row_panel_size) * n_cp >= 2**63:
        rp = rp.astype(object)
    tile_ids = rp * n_cp + cp
    if not np.array_equal(order, np.arange(n)):
        r_ids, c_ids, vals = r_ids[order], c_ids[order], vals[order]
        tile_ids = tile_ids[order]
    new_tile = np.empty(n, dtype=bool)
    new_tile[:1] = True
    new_tile[1:] = tile_ids[1:] != tile_ids[:-1]
    starts = np.flatnonzero(new_tile)
    return r_ids, c_ids, vals, starts, tile_ids[starts]


def tile_matrix(
    coo: COOMatrix,
    row_panel_size: int,
    col_panel_size: int | None = None,
) -> TiledMatrix:
    """Reorder a COO matrix into the tiled layout of Appendix A.

    ``col_panel_size=None`` means "all columns" (one column panel), the
    SPADE Base setting.  Tiles are laid out row-panel-major: all tiles of
    row panel 0 left to right, then row panel 1, and so on — the order
    the CPE walks when no barriers are used (Figure 5a).

    The entries are ordered by (row panel, column panel, row, column):
    tiles contiguous, row-major inside each tile, repeated coordinates
    in input order.  The reference ordering is ``np.lexsort((c, r, cp,
    rp))``; the compiled tiler (``repro/native/tile.c``) computes each
    entry's composite key in one pass that also checks the indices and
    finds the tiles.  Input already in that order (row-major COO under
    the Base setting) keeps its arrays: the layout's ``r_ids``,
    ``c_ids`` and ``vals`` are the COO's own, as :meth:`TiledMatrix.to_coo`
    hands them back.  Other input is sorted, with a stable LSD radix
    sort, into new arrays.  Without the library, or for a matrix beyond
    its limits (``2**32`` entries, a key span of ``2**63``), the
    reference runs instead; the layout is the same either way.
    """
    if row_panel_size < 1:
        raise ValueError("row_panel_size must be >= 1")
    if col_panel_size is None:
        col_panel_size = coo.num_cols
    col_panel_size = max(1, min(col_panel_size, max(coo.num_cols, 1)))

    n_cp = -(-coo.num_cols // col_panel_size)
    n_rp = -(-coo.num_rows // row_panel_size)
    span = n_rp * n_cp * row_panel_size * col_panel_size
    kernels = native.kernels()
    order = (
        kernels.tile if kernels is not None
        and coo.nnz < 2**32 and span < 2**63
        else _order_twin
    )
    r, c, v, starts, keys = order(
        coo.r_ids, coo.c_ids, coo.vals, coo.num_rows, coo.num_cols,
        row_panel_size, col_panel_size,
    )
    nnz = np.diff(starts, append=coo.nnz)
    padded = _pad_to_line(nnz)
    return TiledMatrix(
        num_rows=coo.num_rows,
        num_cols=coo.num_cols,
        row_panel_size=row_panel_size,
        col_panel_size=col_panel_size,
        r_ids=r,
        c_ids=c,
        vals=v,
        sparse_in_start_offset=starts,
        tile_nnz_num=nnz,
        sparse_out_start_offset=np.cumsum(padded) - padded,
        # Tile ids past int64 (the twin's Python ints) still give int64
        # panel ids.
        tile_row_panel_id=(keys // n_cp).astype(np.int64, copy=False),
        tile_col_panel_id=(keys % n_cp).astype(np.int64, copy=False),
    )
