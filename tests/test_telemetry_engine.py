"""Golden agreement: telemetry metrics vs EngineResult/AccessStats.

The metrics registry is a *second reporting channel* for the same
counters the engine already returns.  These tests pin the contract that
the two channels agree exactly — per level, per DRAM direction, per
region — in BOTH replay modes, and that the default (telemetry off)
leaves the report bit-identical to an untelemetered run.  Test ids name
the replay by how the engine drives it: ``scalar`` (one call per
access) or ``batched`` (each epoch's traces in one call,
``replay="array"``).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import TelemetryConfig, scaled_config
from repro.core.accelerator import SpadeSystem
from repro.sparse.generators import rmat_graph

LEVELS = ("l1", "l2", "llc", "victim", "bbf_stream")


def run_traced(replay: str, telemetry: TelemetryConfig):
    cfg = dataclasses.replace(
        scaled_config(4, cache_shrink=8),
        replay="array" if replay == "batched" else replay,
        telemetry=telemetry,
    )
    system = SpadeSystem(cfg)
    a = rmat_graph(scale=7, edge_factor=8, seed=99)
    rng = np.random.default_rng(2024)
    b = rng.random((a.num_cols, 16), dtype=np.float32)
    return system, system.spmm(a, b)


@pytest.mark.parametrize("replay", ["scalar", "batched"])
class TestMetricsMatchStats:
    def test_level_counters_equal_access_stats(self, replay):
        system, report = run_traced(
            replay, TelemetryConfig(metrics=True)
        )
        m = system.telemetry.metrics
        stats = report.result.stats
        for level in LEVELS:
            s = getattr(stats, level)
            assert m.value(
                "spade_level_hits_total", level=level
            ) == s.hits, level
            assert m.value(
                "spade_level_misses_total", level=level
            ) == s.misses, level
            assert m.value(
                "spade_level_writebacks_total", level=level
            ) == s.writebacks, level

    def test_per_unit_counters_sum_to_aggregates(self, replay):
        system, report = run_traced(
            replay, TelemetryConfig(metrics=True)
        )
        m = system.telemetry.metrics
        stats = report.result.stats
        # Per-PE L1 series sum to the l1 aggregate.
        assert m.total(
            "spade_cache_hits_total", level="l1"
        ) == stats.l1.hits
        assert m.total(
            "spade_cache_misses_total", level="l1"
        ) == stats.l1.misses
        assert m.total(
            "spade_cache_hits_total", level="l2"
        ) == stats.l2.hits
        assert m.total(
            "spade_bbf_stream_hits_total"
        ) == stats.bbf_stream.hits
        assert m.total(
            "spade_stlb_misses_total"
        ) == stats.stlb_misses

    def test_dram_and_region_counters(self, replay):
        system, report = run_traced(
            replay, TelemetryConfig(metrics=True)
        )
        m = system.telemetry.metrics
        stats = report.result.stats
        assert m.value(
            "spade_dram_lines_total", op="read"
        ) == stats.dram_reads
        assert m.value(
            "spade_dram_lines_total", op="write"
        ) == stats.dram_writes
        assert stats.by_region  # non-trivial run
        for region, lines in stats.by_region.items():
            assert m.value(
                "spade_dram_region_lines_total", region=region
            ) == lines, region
        assert m.value(
            "spade_flushed_dirty_lines_total"
        ) == stats.flushed_dirty_lines

    def test_run_gauges_and_epochs(self, replay):
        system, report = run_traced(
            replay, TelemetryConfig(metrics=True)
        )
        m = system.telemetry.metrics
        result = report.result
        assert m.value("spade_epochs_total") == len(result.epoch_timings)
        assert m.value(
            "spade_epochs_total"
        ) == report.schedule.num_epochs
        assert m.value("spade_run_time_ns") == result.time_ns
        assert m.value(
            "spade_run_termination_ns"
        ) == result.termination_ns
        # Schedule-shape gauges published by the CPE.
        assert m.value(
            "spade_schedule_epochs"
        ) == report.schedule.num_epochs
        assert m.value("spade_schedule_tiles") > 0

    def test_trace_spans_cover_the_run(self, replay):
        system, report = run_traced(
            replay, TelemetryConfig(metrics=True, trace=True)
        )
        events = system.telemetry.tracer.events
        names = {e["name"] for e in events}
        assert "spmm" in names
        assert "build_schedule" in names
        assert "wb_invalidate" in names
        epochs = [
            e for e in events
            if e.get("cat") == "epoch" and e["ph"] == "X"
        ]
        assert len(epochs) == report.schedule.num_epochs
        barriers = [
            e for e in events
            if e.get("cat") == "epoch" and e["ph"] == "i"
        ]
        assert len(barriers) == report.schedule.num_epochs
        # Simulated time rides in args, not on the host timeline.
        assert all(
            "epoch_time_ns" in b["args"] for b in barriers
        )


class TestReplayBatchHistogram:
    def test_populated_only_in_batched_mode(self):
        sys_s, _ = run_traced("scalar", TelemetryConfig(metrics=True))
        sys_b, _ = run_traced("batched", TelemetryConfig(metrics=True))
        scalar_obs = sum(
            s.value
            for s in sys_s.telemetry.metrics.samples()
            if s.name == "spade_replay_batch_accesses"
        )
        batched = [
            s for s in sys_b.telemetry.metrics.samples()
            if s.name == "spade_replay_batch_accesses"
        ]
        assert scalar_obs == 0  # observed under array replay only
        assert batched, "batched mode must record chunk sizes"


class TestDisabledByDefault:
    def test_default_config_records_nothing(self):
        system, report = run_traced("batched", TelemetryConfig())
        assert not system.telemetry.enabled
        assert len(system.telemetry.metrics) == 0
        assert system.telemetry.tracer.events == []
        # ...and the measured result is identical to a metered run.
        sys_on, rep_on = run_traced(
            "batched", TelemetryConfig(metrics=True, trace=True)
        )
        assert report.result.time_ns == rep_on.result.time_ns
        assert dataclasses.asdict(
            report.result.stats
        ) == dataclasses.asdict(rep_on.result.stats)
        np.testing.assert_array_equal(
            report.result.output_dense, rep_on.result.output_dense
        )
