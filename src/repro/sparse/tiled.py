"""Tiled sparse-matrix layout (Appendix A of the paper).

A matrix is partitioned into tiles of ``row_panel_size`` x
``col_panel_size``.  The COO entry arrays are reordered so that each
tile's entries are contiguous, and tiling metadata is attached:

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

Empty tiles are dropped from the layout (they occupy no metadata).
Within a tile, nonzeros keep row-major order, matching Figure 15(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.config import CACHE_LINE_BYTES, FLOAT_BYTES
from repro.sparse.coo import COOMatrix

_OUT_VALS_PER_LINE = CACHE_LINE_BYTES // FLOAT_BYTES


@dataclass(frozen=True)
class TileInfo:
    """Metadata for one non-empty tile, in layout order."""

    tile_id: int
    row_panel_id: int
    col_panel_id: int
    sparse_in_start_offset: int
    sparse_out_start_offset: int
    nnz: int

    @property
    def sparse_in_end_offset(self) -> int:
        return self.sparse_in_start_offset + self.nnz


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
    tiles: List[TileInfo]

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

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
        if not self.tiles:
            return 0
        last = self.tiles[-1]
        return last.sparse_out_start_offset + _pad_to_line(last.nnz)

    def tiles_in_row_panel(self, row_panel_id: int) -> List[TileInfo]:
        return [t for t in self.tiles if t.row_panel_id == row_panel_id]

    def tiles_in_col_panel(self, col_panel_id: int) -> List[TileInfo]:
        return [t for t in self.tiles if t.col_panel_id == col_panel_id]

    def tile_entries(self, tile: TileInfo):
        """The (r_ids, c_ids, vals) slices of one tile."""
        lo, hi = tile.sparse_in_start_offset, tile.sparse_in_end_offset
        return self.r_ids[lo:hi], self.c_ids[lo:hi], self.vals[lo:hi]

    def to_coo(self) -> COOMatrix:
        """Recover the (unordered) COO matrix."""
        return COOMatrix(
            self.num_rows, self.num_cols, self.r_ids, self.c_ids, self.vals
        )

    def validate(self) -> None:
        """Check layout invariants: contiguous tiles, entries in-panel."""
        expected_offset = 0
        expected_out = 0
        seen = set()
        for tile in self.tiles:
            if tile.sparse_in_start_offset != expected_offset:
                raise ValueError("tiles are not contiguous in entry arrays")
            if tile.sparse_out_start_offset != expected_out:
                raise ValueError("output offsets are not line-aligned")
            if tile.nnz <= 0:
                raise ValueError("empty tile present in layout")
            key = (tile.row_panel_id, tile.col_panel_id)
            if key in seen:
                raise ValueError(f"duplicate tile {key}")
            seen.add(key)
            r, c, _ = self.tile_entries(tile)
            if np.any(r // self.row_panel_size != tile.row_panel_id):
                raise ValueError("entry outside its row panel")
            if np.any(c // self.col_panel_size != tile.col_panel_id):
                raise ValueError("entry outside its column panel")
            expected_offset += tile.nnz
            expected_out += _pad_to_line(tile.nnz)
        if expected_offset != self.nnz:
            raise ValueError("tile nnz sum does not cover all entries")

    def __repr__(self) -> str:
        return (
            f"TiledMatrix({self.num_rows}x{self.num_cols}, nnz={self.nnz}, "
            f"RP={self.row_panel_size}, CP={self.col_panel_size}, "
            f"tiles={self.num_tiles})"
        )


def _pad_to_line(n_vals: int) -> int:
    """Round an output-value count up to a whole number of cache lines."""
    return -(-n_vals // _OUT_VALS_PER_LINE) * _OUT_VALS_PER_LINE


def _radix_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort for non-negative integer keys.

    NumPy's ``kind="stable"`` argsort is a radix sort only for <= 16-bit
    integers; wider dtypes take a comparison sort that is ~10x slower on
    tile keys.  Keys are rebased to their minimum first, then keys under
    2**16 sort in one 16-bit pass, keys under 2**31 in two (low then
    high half, composed stably); anything wider falls back to NumPy's
    comparison sort.
    """
    n = keys.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.intp)
    lo = int(keys.min())
    m = int(keys.max()) - lo
    if lo != 0:
        keys = keys - lo
    if m < (1 << 16):
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if m < (1 << 31):
        o1 = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
        hi = (keys[o1] >> 16).astype(np.uint16)
        return o1[np.argsort(hi, kind="stable")]
    return np.argsort(keys, kind="stable")


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
    """
    if row_panel_size < 1:
        raise ValueError("row_panel_size must be >= 1")
    if col_panel_size is None:
        col_panel_size = coo.num_cols
    col_panel_size = max(1, min(col_panel_size, max(coo.num_cols, 1)))

    rp = coo.r_ids // row_panel_size
    cp = coo.c_ids // col_panel_size
    # Sort entries by (row panel, col panel, row, col): tiles contiguous,
    # row-major inside each tile.  Within a tile the panel ids are fixed,
    # so (rp, cp, r, c) orders identically to the composite key
    # ((rp*NCP + cp)*RPS + r%RPS)*CPS + c%CPS, whose span is
    # tiles x panel-area — small enough for a radix argsort on every
    # realistic shape.  Ties cannot occur between distinct entries of the
    # same (r, c), and equal entries keep input order (both sorts stable).
    n_cp = -(-coo.num_cols // col_panel_size)
    n_rp = -(-coo.num_rows // row_panel_size)
    span = n_rp * n_cp * row_panel_size * col_panel_size
    if span < (1 << 62):
        key = (
            (rp * n_cp + cp) * row_panel_size
            + (coo.r_ids - rp * row_panel_size)
        ) * col_panel_size + (coo.c_ids - cp * col_panel_size)
        order = None
        if 0 < coo.nnz and span <= max(8 * coo.nnz, 1 << 20):
            # Deduplicated matrices have pairwise-distinct keys, and a
            # distinct-key sort is a bitmap scatter + flatnonzero —
            # about half the cost of the radix passes.  Duplicate keys
            # (repeated COO entries) show up as a short flatnonzero and
            # fall through to the stable radix path.
            mask = np.zeros(span, dtype=bool)
            mask[key] = True
            fn = np.flatnonzero(mask)
            if fn.size == coo.nnz:
                inv = np.empty(span, dtype=np.int64)
                inv[key] = np.arange(coo.nnz, dtype=np.int64)
                order = inv[fn]
        if order is None:
            order = _radix_argsort(key)
    else:  # pragma: no cover - astronomically large panel spaces
        order = np.lexsort((coo.c_ids, coo.r_ids, cp, rp))
    r = coo.r_ids[order]
    c = coo.c_ids[order]
    v = coo.vals[order]
    rp = rp[order]
    cp = cp[order]

    tiles: List[TileInfo] = []
    if coo.nnz:
        tile_key = rp * (-(-coo.num_cols // col_panel_size)) + cp
        boundaries = np.flatnonzero(np.diff(tile_key)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [coo.nnz]))
        out_offset = 0
        for tid, (lo, hi) in enumerate(zip(starts, ends)):
            tiles.append(
                TileInfo(
                    tile_id=tid,
                    row_panel_id=int(rp[lo]),
                    col_panel_id=int(cp[lo]),
                    sparse_in_start_offset=int(lo),
                    sparse_out_start_offset=out_offset,
                    nnz=int(hi - lo),
                )
            )
            out_offset += _pad_to_line(int(hi - lo))

    return TiledMatrix(
        num_rows=coo.num_rows,
        num_cols=coo.num_cols,
        row_panel_size=row_panel_size,
        col_panel_size=col_panel_size,
        r_ids=r,
        c_ids=c,
        vals=v,
        tiles=tiles,
    )
