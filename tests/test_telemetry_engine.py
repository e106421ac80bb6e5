"""Golden agreement: exported metrics vs EngineResult/AccessStats.

The metrics are a *view* (:func:`repro.obs.run_metrics`) of what the
engine returns plus what its run ledger recorded.  These tests pin the
contract that the view agrees exactly with the report — per level, per
unit, per DRAM direction, per region — in BOTH replay modes, that the
trace export covers the run, and that the default (no ledger) leaves
the report bit-identical to a recorded run.  Test ids name the replay
mode: ``scalar`` (one oracle call per dispatch run) or ``batched``
(``replay="array"``: each epoch's runs in one call).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import scaled_config
from repro.core.accelerator import SpadeSystem
from repro.obs import NULL_LEDGER, RunLedger, chrome_trace, run_metrics
from repro.sparse.generators import rmat_graph

LEVELS = ("l1", "l2", "llc", "victim", "bbf_stream")


def run_traced(replay: str, ledger=None):
    cfg = dataclasses.replace(
        scaled_config(4, cache_shrink=8),
        replay="array" if replay == "batched" else replay,
    )
    system = SpadeSystem(cfg, ledger=ledger)
    a = rmat_graph(scale=7, edge_factor=8, seed=99)
    rng = np.random.default_rng(2024)
    b = rng.random((a.num_cols, 16), dtype=np.float32)
    return system, system.spmm(a, b)


def run_recorded(replay: str, tmp_path):
    """A run recorded into a ledger; returns its metrics, its events
    and the report."""
    ledger = RunLedger(tmp_path / f"{replay}.jsonl")
    _, report = run_traced(replay, ledger)
    events = ledger.events()
    return run_metrics(report, events), events, report


@pytest.mark.parametrize("replay", ["scalar", "batched"])
class TestMetricsMatchStats:
    def test_level_counters_equal_access_stats(self, replay, tmp_path):
        m, _, report = run_recorded(replay, tmp_path)
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

    def test_per_unit_counters_sum_to_aggregates(self, replay, tmp_path):
        m, _, report = run_recorded(replay, tmp_path)
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

    def test_dram_and_region_counters(self, replay, tmp_path):
        m, _, report = run_recorded(replay, tmp_path)
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

    def test_run_gauges_and_epochs(self, replay, tmp_path):
        m, _, report = run_recorded(replay, tmp_path)
        result = report.result
        assert m.value("spade_epochs_total") == len(result.epoch_timings)
        assert m.value(
            "spade_epochs_total"
        ) == report.schedule.num_epochs
        assert m.value("spade_run_time_ns") == result.time_ns
        assert m.value(
            "spade_run_termination_ns"
        ) == result.termination_ns
        # Schedule-shape gauges, read off the report's schedule.
        assert m.value(
            "spade_schedule_epochs"
        ) == report.schedule.num_epochs
        assert m.value("spade_schedule_tiles") > 0

    def test_trace_spans_cover_the_run(self, replay, tmp_path):
        _, recorded, report = run_recorded(replay, tmp_path)
        events = chrome_trace(recorded)["traceEvents"]
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
    def test_populated_only_in_batched_mode(self, tmp_path):
        m_s, _, _ = run_recorded("scalar", tmp_path)
        m_b, _, _ = run_recorded("batched", tmp_path)
        scalar_obs = sum(
            s.value
            for s in m_s.samples()
            if s.name == "spade_replay_batch_accesses"
        )
        batched = [
            s for s in m_b.samples()
            if s.name == "spade_replay_batch_accesses"
        ]
        assert scalar_obs == 0  # observed under array replay only
        assert batched, "batched mode must record chunk sizes"


class TestDisabledByDefault:
    def test_default_config_records_nothing(self, tmp_path):
        system, report = run_traced("batched")
        assert system.ledger is None  # the engine records into NULL_LEDGER
        assert NULL_LEDGER.events() == []
        assert all(
            s.value == 0
            for s in run_metrics(events=NULL_LEDGER.events()).samples()
        )
        assert chrome_trace(NULL_LEDGER.events())["traceEvents"] == []
        # ...and the measured result is identical to a recorded run.
        _, _, rep_on = run_recorded("batched", tmp_path)
        assert report.result.time_ns == rep_on.result.time_ns
        assert dataclasses.asdict(
            report.result.stats
        ) == dataclasses.asdict(rep_on.result.stats)
        np.testing.assert_array_equal(
            report.result.output_dense, rep_on.result.output_dense
        )
