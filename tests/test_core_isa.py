"""Unit tests for the tile ISA, bypass policy, and CPE scheduler."""

import numpy as np
import pytest

from repro.core.bypass import BypassPolicy
from repro.core.cpe import ControlProcessor, ScheduleParams
from repro.core.instructions import (
    InitializationInstruction,
    Primitive,
    SchedulingBarrierInstruction,
    TerminationInstruction,
    TileInstruction,
    WBInvalidateInstruction,
)
from repro.sparse.tiled import tile_matrix


def make_init(primitive=Primitive.SPMM, **overrides):
    kwargs = dict(
        primitive=primitive,
        rmatrix_base=0x1000,
        cmatrix_base=0x2000,
        sparse_r_ids_base=0x3000,
        sparse_c_ids_base=0x4000,
        sparse_vals_base=0x5000,
        sparse_out_vals_base=(
            0x6000 if primitive is Primitive.SDDMM else 0
        ),
        rmatrix_bypass=False,
        cmatrix_bypass=False,
        sizeof_indices=4,
        sizeof_vals=4,
        dense_row_size=32,
    )
    kwargs.update(overrides)
    return InitializationInstruction(**kwargs)


class TestInstructions:
    def test_init_valid(self):
        init = make_init()
        assert init.primitive is Primitive.SPMM

    def test_init_rejects_bad_k(self):
        with pytest.raises(ValueError, match="K"):
            make_init(dense_row_size=0)

    def test_init_rejects_bad_index_size(self):
        with pytest.raises(ValueError, match="sizeof_indices"):
            make_init(sizeof_indices=3)

    def test_sddmm_requires_output_base(self):
        with pytest.raises(ValueError, match="output base"):
            make_init(primitive=Primitive.SDDMM, sparse_out_vals_base=0)

    def test_tile_instruction_requires_work(self):
        with pytest.raises(ValueError, match="nonzero"):
            TileInstruction(0, 0, 0)

    def test_tile_instruction_rejects_negative_offsets(self):
        with pytest.raises(ValueError):
            TileInstruction(-1, 0, 5)


class TestBypassPolicy:
    def test_defaults_match_section_5_2(self):
        p = BypassPolicy()
        assert p.sparse_stream_bypass
        assert p.sddmm_output_bypass
        assert not p.rmatrix_bypass
        assert not p.cmatrix_bypass

    def test_legacy_no_bypass(self):
        p = BypassPolicy.legacy_no_bypass()
        assert not p.sparse_stream_bypass
        assert not p.sddmm_output_bypass

    def test_rmatrix_bypassed(self):
        assert BypassPolicy.rmatrix_bypassed().rmatrix_bypass


class TestScheduling:
    def test_row_panel_constraint_holds(self, small_graph):
        tiled = tile_matrix(small_graph, 8, 16)
        cpe = ControlProcessor(num_pes=3)
        schedule = cpe.build_schedule(tiled)
        schedule.validate_row_panel_constraint()  # must not raise

    def test_round_robin_assignment(self, small_graph):
        tiled = tile_matrix(small_graph, 8, None)
        cpe = ControlProcessor(num_pes=4)
        schedule = cpe.build_schedule(tiled)
        for pe, tiles in enumerate(schedule.epochs[0]):
            assert tiles.dtype == np.int64
            assert np.all(tiled.tile_row_panel_id[tiles] % 4 == pe)

    def test_no_barriers_single_epoch(self, small_graph):
        tiled = tile_matrix(small_graph, 8, 16)
        schedule = ControlProcessor(2).build_schedule(tiled)
        assert schedule.num_epochs == 1

    def test_barriers_epoch_per_col_group(self, small_graph):
        tiled = tile_matrix(small_graph, 8, 16)
        schedule = ControlProcessor(2).build_schedule(
            tiled, ScheduleParams(use_barriers=True, barrier_group_cols=2)
        )
        assert schedule.num_epochs >= 2
        for epoch in schedule.epochs:
            groups = {
                cp // 2 for tiles in epoch
                for cp in tiled.tile_col_panel_id[tiles].tolist()
            }
            assert len(groups) == 1

    def test_all_tiles_scheduled_exactly_once(self, small_graph):
        tiled = tile_matrix(small_graph, 8, 16)
        for barriers in (False, True):
            schedule = ControlProcessor(3).build_schedule(
                tiled, ScheduleParams(use_barriers=barriers)
            )
            ids = np.concatenate(
                [tiles for epoch in schedule.epochs for tiles in epoch]
            )
            assert sorted(ids.tolist()) == list(range(tiled.num_tiles))

    def test_load_imbalance_metric(self, small_graph):
        tiled = tile_matrix(small_graph, 8, None)
        schedule = ControlProcessor(2).build_schedule(tiled)
        assert schedule.load_imbalance() >= 1.0
        assert sum(schedule.pe_nnz()) == small_graph.nnz

    def test_tile_order_preserved_within_pe(self, small_graph):
        """Without barriers a PE walks its tiles row-panel-major
        (Figure 5a)."""
        tiled = tile_matrix(small_graph, 8, 16)
        schedule = ControlProcessor(2).build_schedule(tiled)
        for pe in range(2):
            tiles = schedule.tiles_for_pe(pe)
            keys = list(zip(
                tiled.tile_row_panel_id[tiles].tolist(),
                tiled.tile_col_panel_id[tiles].tolist(),
            ))
            assert keys == sorted(keys)


class TestInstructionStreams:
    def test_stream_structure(self, small_graph):
        tiled = tile_matrix(small_graph, 8, 16)
        cpe = ControlProcessor(2)
        schedule = cpe.build_schedule(
            tiled, ScheduleParams(use_barriers=True)
        )
        init = make_init()
        streams = cpe.instruction_streams(schedule, init)
        assert len(streams) == 2
        for stream in streams:
            assert isinstance(stream[0], InitializationInstruction)
            assert isinstance(stream[-1], TerminationInstruction)
            assert isinstance(stream[-2], WBInvalidateInstruction)
            tile_count = sum(
                1 for i in stream if isinstance(i, TileInstruction)
            )
            assert tile_count == len(schedule.tiles_for_pe(
                streams.index(stream))
            )

    def test_barriers_between_epochs_not_after_last(self, small_graph):
        tiled = tile_matrix(small_graph, 8, 16)
        cpe = ControlProcessor(2)
        schedule = cpe.build_schedule(
            tiled, ScheduleParams(use_barriers=True)
        )
        streams = cpe.instruction_streams(schedule, make_init())
        for stream in streams:
            barriers = [
                i for i in stream
                if isinstance(i, SchedulingBarrierInstruction)
            ]
            assert len(barriers) == schedule.num_epochs - 1

    def test_tile_instructions_carry_layout_offsets(self, small_graph):
        tiled = tile_matrix(small_graph, 8, None)
        cpe = ControlProcessor(1)
        schedule = cpe.build_schedule(tiled)
        streams = cpe.instruction_streams(schedule, make_init())
        tile_instrs = [
            i for i in streams[0] if isinstance(i, TileInstruction)
        ]
        assert [t.sparse_in_start_offset for t in tile_instrs] == (
            tiled.sparse_in_start_offset.tolist()
        )
        assert [t.nnz_num for t in tile_instrs] == (
            tiled.tile_nnz_num.tolist()
        )
        assert [t.sparse_out_start_offset for t in tile_instrs] == (
            tiled.sparse_out_start_offset.tolist()
        )
