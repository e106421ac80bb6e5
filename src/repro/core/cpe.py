"""The Control Processing Element (CPE): tile scheduling and the
instruction protocol (Sections 4.1–4.3).

The CPE is a simple general-purpose core that walks the tiled matrix
layout and feeds Tile instructions to PEs through their Input registers.
Scheduling rules:

- **SpMM row-panel constraint** — all tiles of a row panel go to the
  same PE (two tiles of one row panel update the same rMatrix rows, so
  splitting them across PEs would race, Section 4.3).  Row panels are
  assigned round-robin across PEs, as in Figure 5(a).
- **SDDMM** has no such constraint (each nonzero owns its output), but
  the same round-robin policy is used for uniformity.
- **Scheduling barriers** — when enabled, tiles are issued in epochs of
  ``barrier_group_cols`` column panels; no PE receives a tile of the
  next epoch until every PE has finished the current one (Figure 5b).
  This bounds the concurrent cMatrix working set in the shared LLC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.instructions import (
    Instruction,
    InitializationInstruction,
    Primitive,
    SchedulingBarrierInstruction,
    TerminationInstruction,
    TileInstruction,
    WBInvalidateInstruction,
)
from repro.sparse.tiled import TiledMatrix


@dataclass(frozen=True)
class ScheduleParams:
    """The CPE-visible flexibility knobs (Table 3)."""

    use_barriers: bool = False
    barrier_group_cols: int = 1

    def __post_init__(self) -> None:
        if self.barrier_group_cols < 1:
            raise ValueError("barrier_group_cols must be >= 1")


@dataclass
class Schedule:
    """Tile work organised as epochs x PEs.

    ``epochs[e][p]`` is the int64 array of the tiles (indices into
    ``tiled``'s tile table) PE ``p`` executes during epoch ``e``, in
    layout order.  Without barriers there is exactly one epoch.
    """

    num_pes: int
    epochs: List[List[np.ndarray]]
    tiled: TiledMatrix
    params: ScheduleParams = field(default_factory=ScheduleParams)

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    @property
    def num_tiles(self) -> int:
        return sum(len(tiles) for epoch in self.epochs for tiles in epoch)

    def tiles_for_pe(self, pe_id: int) -> np.ndarray:
        """All tiles of one PE across epochs, in execution order."""
        return np.concatenate(
            [np.zeros(0, np.int64)] + [e[pe_id] for e in self.epochs]
        )

    def pe_nnz(self) -> List[int]:
        """Total nonzeros assigned to each PE (load-balance metric)."""
        nnz = self.tiled.tile_nnz_num
        return [
            int(nnz[self.tiles_for_pe(p)].sum())
            for p in range(self.num_pes)
        ]

    def load_imbalance(self) -> float:
        """max/mean nonzeros per PE; 1.0 = perfectly balanced."""
        loads = self.pe_nnz()
        mean = sum(loads) / len(loads) if loads else 0.0
        return max(loads) / mean if mean else 1.0

    def validate_row_panel_constraint(self) -> None:
        """Assert the SpMM anti-race rule: one row panel, one PE."""
        tiles = [self.tiles_for_pe(p) for p in range(self.num_pes)]
        pe = np.repeat(np.arange(self.num_pes), [len(t) for t in tiles])
        rp = self.tiled.tile_row_panel_id[np.concatenate(tiles)]
        by_panel = np.lexsort((pe, rp))
        rp, pe = rp[by_panel], pe[by_panel]
        split = np.flatnonzero((rp[1:] == rp[:-1]) & (pe[1:] != pe[:-1]))
        if split.size:
            i = split[0]
            raise AssertionError(
                f"row panel {rp[i]} split across PEs {pe[i]} and "
                f"{pe[i + 1]}"
            )


class ControlProcessor:
    """Builds schedules and instruction streams from a tiled matrix."""

    def __init__(self, num_pes: int) -> None:
        if num_pes < 1:
            raise ValueError("need at least one PE")
        self.num_pes = num_pes

    # -- scheduling ------------------------------------------------------

    def build_schedule(
        self,
        tiled: TiledMatrix,
        params: Optional[ScheduleParams] = None,
    ) -> Schedule:
        """Assign tiles to PEs and group them into barrier epochs.

        Row panel ``rp`` belongs to PE ``rp % num_pes``; with barriers a
        tile's epoch is its column panel's group, and groups without a
        tile are dropped.  A stable sort by (epoch, PE) keeps each PE's
        tiles in layout order."""
        params = params or ScheduleParams()
        p = self.num_pes
        pe = tiled.tile_row_panel_id % p
        group = (
            tiled.tile_col_panel_id // params.barrier_group_cols
            if params.use_barriers else np.zeros_like(pe)
        )
        order = np.lexsort((pe, group))
        new_epoch = np.diff(group[order], prepend=-1) != 0
        slot = (np.cumsum(new_epoch) - 1) * p + pe[order]
        # Without barriers there is one epoch, even with no tiles.
        num_epochs = max(int(new_epoch.sum()), not params.use_barriers)
        ends = np.searchsorted(slot, np.arange(num_epochs * p), "right")
        parts = [
            order[lo:hi]
            for lo, hi in zip([0, *ends[:-1].tolist()], ends.tolist())
        ]
        epochs = [parts[e * p:(e + 1) * p] for e in range(num_epochs)]
        schedule = Schedule(p, epochs, tiled, params)
        schedule.validate_row_panel_constraint()
        return schedule

    # -- instruction streams ------------------------------------------------

    def instruction_streams(
        self,
        schedule: Schedule,
        init: InitializationInstruction,
    ) -> List[List[Instruction]]:
        """The exact per-PE instruction sequence the CPE would write to
        the Input registers: Initialization, tiles (with barriers at
        epoch boundaries), WB&Invalidate, Termination (Section 4.3)."""
        streams: List[List[Instruction]] = [
            [init] for _ in range(schedule.num_pes)
        ]
        tiled = schedule.tiled
        for epoch_idx, epoch in enumerate(schedule.epochs):
            for pe_id, tiles in enumerate(epoch):
                streams[pe_id].extend(
                    TileInstruction(
                        sparse_in_start_offset=lo,
                        sparse_out_start_offset=out,
                        nnz_num=nnz,
                    )
                    for lo, nnz, out in zip(
                        tiled.sparse_in_start_offset[tiles].tolist(),
                        tiled.tile_nnz_num[tiles].tolist(),
                        tiled.sparse_out_start_offset[tiles].tolist(),
                    )
                )
            if (
                schedule.params.use_barriers
                and epoch_idx < len(schedule.epochs) - 1
            ):
                for pe_id in range(schedule.num_pes):
                    streams[pe_id].append(
                        SchedulingBarrierInstruction(barrier_id=epoch_idx)
                    )
        for pe_id in range(schedule.num_pes):
            streams[pe_id].append(WBInvalidateInstruction())
            streams[pe_id].append(TerminationInstruction())
        return streams

    @staticmethod
    def make_initialization(
        primitive: Primitive,
        address_map,
        rmatrix_bypass: bool,
        cmatrix_bypass: bool,
        dense_row_size: int,
        sizeof_indices: int = 4,
        sizeof_vals: int = 4,
    ) -> InitializationInstruction:
        """Build the Initialization instruction from an address map whose
        regions follow the engine's naming convention."""
        regions = address_map.regions
        return InitializationInstruction(
            primitive=primitive,
            rmatrix_base=regions["rmatrix"].base,
            cmatrix_base=regions["cmatrix"].base,
            sparse_r_ids_base=regions["sparse_r_ids"].base,
            sparse_c_ids_base=regions["sparse_c_ids"].base,
            sparse_vals_base=regions["sparse_vals"].base,
            sparse_out_vals_base=(
                regions["sparse_out_vals"].base
                if "sparse_out_vals" in regions
                else 0
            ),
            rmatrix_bypass=rmatrix_bypass,
            cmatrix_bypass=cmatrix_bypass,
            sizeof_indices=sizeof_indices,
            sizeof_vals=sizeof_vals,
            dense_row_size=dense_row_size,
        )
