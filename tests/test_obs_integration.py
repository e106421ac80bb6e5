"""Integration tests: the run ledger wired through the supervisor,
engine, replay dispatch, sweep shards, CLI, and provenance."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.cli import main
from repro.config import ObsConfig, ResilienceConfig, scaled_config
from repro.errors import EngineExecutionError
from repro.obs import NULL_LEDGER, RunLedger, open_run_ledger, read_events
from repro.obs.schema import DISPATCH_LEVELS
from repro.resilience import ChaosConfig, ChaosMonkey, RunSupervisor
from repro.sparse.generators import uniform_random
from repro.obs import chrome_trace, run_manifest, validate_manifest
from repro.sweep import SweepRunner, open_cache


@pytest.fixture(scope="module")
def workload():
    a = uniform_random(256, 256, nnz=4000, seed=3)
    b = np.random.default_rng(0).random((a.num_cols, 8), dtype=np.float32)
    return a, b


def array_config(**overrides):
    cfg = scaled_config(4)
    return dataclasses.replace(cfg, replay="array", **overrides)


def run_with_ledger(tmp_path, workload, **cfg_overrides):
    a, b = workload
    ledger = open_run_ledger(tmp_path, run_id="itest", validate=True)
    sup = RunSupervisor(ledger=ledger)
    report = sup.run_kernel(array_config(**cfg_overrides), "spmm", a, b)
    ledger.close()
    return report, read_events(ledger.path)


class TestDispatchAudit:
    def test_every_considered_partition_is_audited(
        self, tmp_path, workload
    ):
        _, events = run_with_ledger(tmp_path, workload)
        dispatch = [e for e in events if e["e"] == "dispatch"]
        assert dispatch, "array replay must walk level streams"
        # Every LRU structure replays through the level walk: the dense
        # cascade, each group's STLB and each PE's stream buffer.
        assert {"l1", "stlb", "bbf"} <= {ev["level"] for ev in dispatch}
        end = events[-1]
        for ev in dispatch:
            assert set(ev) == {
                "e", "t", "run", "cache", "level", "events", "chosen",
                "measured_us",
            }
            assert ev["level"] in DISPATCH_LEVELS
            assert ev["cache"].startswith(ev["level"])
            # The walk that ran is the one the run recorded.
            assert ev["chosen"] == end["kernels"]
            assert ev["events"] > 0
            assert ev["measured_us"] >= 0

    def test_epoch_replay_records_one_dispatch_per_walked_stream(
        self, tmp_path
    ):
        """One compiled epoch replay on 8 PEs in two L2 groups: one
        ``dispatch`` event per structure it walked, covering every
        level, all timed inside the compiled call, within the wall time
        of the ``replay_trace`` call that made them."""
        from time import perf_counter

        from repro import native
        from repro.memory.hierarchy import (
            OP_DENSE, OP_DENSE_BYPASS, OP_STREAM, encode_op,
        )
        from tests.test_replay_epoch_properties import make_system, tiny_config

        if native.replay_epoch_kernel() is None:
            pytest.skip("the compiled epoch replay does not load here")
        ms = make_system(dataclasses.replace(tiny_config(), replay="array"))
        assert ms.num_groups == 2
        led = tmp_path / "led"
        ledger = open_run_ledger(led, run_id="fused", validate=True)
        ms.ledger = ledger
        rng = np.random.default_rng(2)
        table, lines, ops, lo = [], [], [], 0
        for pe in range(8):
            n = 60
            path = [OP_DENSE, OP_DENSE_BYPASS, OP_STREAM]
            lines += rng.integers(0, 4096, size=n).tolist()
            ops += [
                encode_op(path[i % 3] if pe % 2 else OP_DENSE, i % 2 == 0, 1)
                for i in range(n)
            ]
            table.append((pe, lo, lo + n))
            lo += n
        t0 = perf_counter()
        ms.replay_trace(
            table, np.array(lines, np.int64), np.array(ops, np.int64)
        )
        wall_us = (perf_counter() - t0) * 1e6
        ledger.close()
        dispatch = [e for e in read_events(ledger.path) if e["e"] == "dispatch"]
        walked = {
            *(f"stlb[{g}]" for g in range(2)),
            *(f"l1[{p}]" for p in range(8)),
            *(f"l2[{g}]" for g in range(2)), "llc",
            *(f"bbf[{p}].victim" for p in range(1, 8, 2)),
            *(f"bbf[{p}].stream" for p in range(1, 8, 2)),
        }
        assert sorted(e["cache"] for e in dispatch) == sorted(walked)
        assert {"l1", "l2", "llc", "stlb", "bbf", "victim"} == {
            e["level"] for e in dispatch
        }
        assert all(e["chosen"] == "native" for e in dispatch)
        assert all(e["events"] > 0 for e in dispatch)
        assert sum(e["measured_us"] for e in dispatch) <= wall_us
        assert main(["obs", "validate", "--require-dispatch", str(led)]) == 0

    def test_results_identical_with_ledger_on_and_off(
        self, tmp_path, workload
    ):
        a, b = workload
        baseline = RunSupervisor().run_kernel(array_config(), "spmm", a, b)
        report, _ = run_with_ledger(tmp_path, workload)
        np.testing.assert_array_equal(report.output, baseline.output)
        assert report.time_ns == baseline.time_ns
        assert report.dram_accesses == baseline.dram_accesses

    def test_disabled_ledger_records_nothing(self, tmp_path, workload):
        a, b = workload
        sup = RunSupervisor()  # NULL_LEDGER by default
        assert sup.ledger is NULL_LEDGER
        sup.run_kernel(array_config(), "spmm", a, b)
        assert list(tmp_path.iterdir()) == []


class TestRunLifecycle:
    def test_run_start_epoch_end_sequence(self, tmp_path, workload):
        report, events = run_with_ledger(tmp_path, workload)
        kinds = [e["e"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        start = events[0]
        assert start["kernel"] == "spmm"
        assert start["replay"] == "array"
        assert len(start["config_fingerprint"]) == 64
        end = events[-1]
        assert end["status"] == "ok"
        assert end["wall_s"] > 0
        assert end["kernels"] in ("native", "python")
        assert end["time_ns"] == pytest.approx(float(report.time_ns))
        epochs = [e for e in events if e["e"] == "epoch"]
        assert epochs
        for ev in epochs:
            assert ev["gen_s"] >= 0 and ev["replay_s"] >= 0
            assert ev["epoch_time_ns"] > 0

    def test_checkpoint_events(self, tmp_path, workload):
        a, b = workload
        ledger = open_run_ledger(
            tmp_path / "led", run_id="ck", validate=True
        )
        res = ResilienceConfig(
            checkpoint_dir=str(tmp_path / "snaps"), checkpoint_interval=1
        )
        sup = RunSupervisor(resilience=res, ledger=ledger)
        sup.run_kernel(array_config(resilience=res), "spmm", a, b)
        ledger.close()
        events = read_events(ledger.path)
        ckpts = [e for e in events if e["e"] == "checkpoint"]
        assert ckpts
        assert all(e["wall_s"] >= 0 for e in ckpts)

    def test_vectorized_run_audits_and_times_phases(
        self, tmp_path, workload
    ):
        _, events = run_with_ledger(
            tmp_path, workload, execution="vectorized"
        )
        assert any(e["e"] == "dispatch" for e in events)
        epochs = [e for e in events if e["e"] == "epoch"]
        assert epochs and all(e["replay_s"] >= 0 for e in epochs)

    def test_scalar_run_writes_no_dispatch_events(
        self, tmp_path, workload
    ):
        # The scalar oracle issues every access itself: replay="array"
        # has no effect, so no level walk runs and nothing is audited.
        _, events = run_with_ledger(
            tmp_path, workload, execution="scalar"
        )
        assert not [e for e in events if e["e"] == "dispatch"]
        epochs = [e for e in events if e["e"] == "epoch"]
        assert epochs
        for ev in epochs:
            assert ev["gen_s"] > 0 and ev["merge_s"] > 0
            assert ev["replay_s"] == 0
            assert ev["fused_chunks"] == 0


class TestResilienceEvents:
    def test_call_retries_are_recorded(self, tmp_path):
        ledger = RunLedger(tmp_path / "r.jsonl", validate=True)
        sup = RunSupervisor(
            resilience=ResilienceConfig(
                max_retries=2, backoff_base_s=0.0
            ),
            sleep=lambda s: None,
            ledger=ledger,
        )
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise EngineExecutionError("boom")
            return "ok"

        assert sup.call(flaky) == "ok"
        ledger.close()
        retries = [
            e for e in read_events(ledger.path) if e["e"] == "retry"
        ]
        assert [e["attempt"] for e in retries] == [1, 2]
        assert all("boom" in e["cause"] for e in retries)

    def test_degradation_records_rung_transition(
        self, tmp_path, workload
    ):
        a, b = workload
        ledger = RunLedger(tmp_path / "d.jsonl", validate=True)
        monkey = ChaosMonkey(
            ChaosConfig(
                worker_fault_rate=1.0, fault_backends=("vectorized",)
            )
        )
        sup = RunSupervisor(
            resilience=ResilienceConfig(backoff_base_s=0.0),
            chaos=monkey,
            sleep=lambda s: None,
            ledger=ledger,
        )
        cfg = array_config(execution="vectorized")
        sup.run_kernel(cfg, "spmm", a, b)
        ledger.close()
        events = read_events(ledger.path)
        degr = [e for e in events if e["e"] == "degradation"]
        assert len(degr) == 1
        assert degr[0]["from_execution"] == "vectorized"
        assert degr[0]["from_replay"] == "array"
        assert degr[0]["to_execution"] == "scalar"
        assert degr[0]["to_replay"] == "scalar"
        assert "fault" in degr[0]["cause"] or degr[0]["cause"]
        end = [e for e in events if e["e"] == "run_end"][-1]
        assert end["status"] == "ok"

    def test_failed_run_ends_with_error(self, tmp_path, workload):
        a, b = workload
        ledger = RunLedger(tmp_path / "f.jsonl", validate=True)
        monkey = ChaosMonkey(
            ChaosConfig(
                worker_fault_rate=1.0, fault_backends=("vectorized",)
            )
        )
        sup = RunSupervisor(
            resilience=ResilienceConfig(
                backoff_base_s=0.0, degrade=False
            ),
            chaos=monkey,
            sleep=lambda s: None,
            ledger=ledger,
        )
        with pytest.raises(EngineExecutionError):
            sup.run_kernel(array_config(), "spmm", a, b)
        ledger.close()
        end = read_events(ledger.path)[-1]
        assert end["e"] == "run_end"
        assert end["status"] == "failed"
        assert end["error"]


def _sweep_cell(env, point):
    """Module-level so pool workers can import it."""
    (x,) = point
    if x < 0:
        raise ValueError(f"negative point {x}")
    return {"square": x * x}


class TestSweepLedger:
    def test_shards_merge_in_grid_order(self, tmp_path):
        ledger = RunLedger(tmp_path / "run-p.jsonl", run_id="parent")
        runner = SweepRunner(jobs=2, ledger=ledger)
        out = runner.map_grid(
            "t", None, _sweep_cell, [(1,), (2,), (3,), (4,)]
        )
        ledger.close()
        assert [r["square"] for r in out] == [1, 4, 9, 16]
        events = read_events(ledger.path)
        started = [
            e["index"] for e in events
            if e["e"] == "sweep_job" and e["status"] == "started"
        ]
        assert started == [0, 1, 2, 3]  # deterministic shard order
        completed = [
            e for e in events
            if e["e"] == "sweep_job" and e["status"] == "completed"
        ]
        assert len(completed) == 4
        assert all(e["wall_s"] >= 0 for e in completed)
        # Each job's events carry its own key-derived run id.
        assert len({e["run"] for e in events}) == 4
        assert not list(tmp_path.glob("shard-*.jsonl"))

    def test_runners_sharing_a_ledger_dir_keep_their_own_shards(
        self, tmp_path
    ):
        # A second runner's in-flight shard sits in the shared ledger
        # directory while this runner merges: it must be neither
        # merged into this ledger nor deleted.
        from repro.obs.ledger import open_shard_dir, shard_path

        other = RunLedger(tmp_path / "run-other.jsonl", run_id="other")
        foreign = shard_path(open_shard_dir(other), 0, "ab" * 32)
        shard = RunLedger(foreign, run_id="job-other")
        shard.emit(
            "sweep_job", index=0, status="started", key="ab" * 32,
            driver="t", pid=1, attempt=1,
        )
        shard.close()
        legacy = shard_path(tmp_path, 0, "cd" * 32)
        legacy.write_text(foreign.read_text())

        ledger = RunLedger(tmp_path / "run-p.jsonl", run_id="parent")
        runner = SweepRunner(jobs=1, ledger=ledger)
        runner.map_grid("t", None, _sweep_cell, [(1,), (2,)])
        ledger.close()
        keys = {
            e["key"] for e in read_events(ledger.path)
            if e["e"] == "sweep_job"
        }
        assert "ab" * 32 not in keys and "cd" * 32 not in keys
        assert len(keys) == 2
        assert foreign.exists() and legacy.exists()
        # This runner's own shard directory is gone after the merge.
        assert [p.name for p in tmp_path.glob(".shards-parent-*")] == []

    def test_cache_hits_recorded_by_parent(self, tmp_path):
        cache = open_cache(tmp_path / "cache")
        first = SweepRunner(jobs=1, cache=cache)
        first.map_grid("t", None, _sweep_cell, [(5,), (6,)])
        ledger = RunLedger(tmp_path / "run-w.jsonl", run_id="warm")
        warm = SweepRunner(
            jobs=1, cache=open_cache(tmp_path / "cache"), ledger=ledger
        )
        warm.map_grid("t", None, _sweep_cell, [(5,), (6,)])
        ledger.close()
        events = read_events(ledger.path)
        hits = [e for e in events if e["e"] == "cache_hit"]
        assert [h["index"] for h in hits] == [0, 1]
        assert all(h["run"] == "warm" for h in hits)
        assert not any(e["e"] == "sweep_job" for e in events)

    def test_failed_job_recorded_then_raised(self, tmp_path):
        from repro.errors import SweepJobError

        ledger = RunLedger(tmp_path / "run-f.jsonl", run_id="fail")
        runner = SweepRunner(jobs=1, ledger=ledger)
        with pytest.raises(SweepJobError):
            runner.map_grid("t", None, _sweep_cell, [(1,), (-1,)])
        ledger.close()
        failed = [
            e for e in read_events(ledger.path)
            if e["e"] == "sweep_job" and e["status"] == "failed"
        ]
        assert len(failed) == 1
        assert "negative point" in failed[0]["error"]

    def test_worker_process_metadata_in_trace(self, tmp_path):
        ledger = RunLedger(tmp_path / "run-p.jsonl", run_id="procs")
        runner = SweepRunner(jobs=2, ledger=ledger)
        runner.map_grid("t", None, _sweep_cell, [(1,), (2,), (3,)])
        ledger.close()
        chrome = chrome_trace(ledger.events())
        names = [
            e for e in chrome["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        sorts = [
            e for e in chrome["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_sort_index"
        ]
        assert names and sorts
        assert all(
            e["args"]["name"].startswith("sweep worker") for e in names
        )
        assert len(names) == len(sorts)


class TestProvenanceLinks:
    def test_manifest_embeds_ledger_summary(self, tmp_path):
        ledger = RunLedger(tmp_path / "run-m.jsonl", run_id="mani")
        ledger.emit("checkpoint", epoch=0, wall_s=0.0)
        manifest = run_manifest(ledger=ledger)
        assert manifest["ledger"]["run_id"] == "mani"
        assert manifest["ledger"]["events"] == 1
        assert manifest["ledger"]["digest"]
        # Null ledger contributes nothing.
        assert "ledger" not in run_manifest(ledger=NULL_LEDGER)

    def test_bench_json_stamps_rss_and_ledger(self, tmp_path):
        from repro.bench.harness import write_bench_json

        ledger = RunLedger(tmp_path / "run-b.jsonl", run_id="bench")
        ledger.emit("checkpoint", epoch=0, wall_s=0.0)
        out = write_bench_json(
            tmp_path / "BENCH_x.json",
            {"metric": 1.0},
            workload={"what": "test"},
            ledger=ledger,
        )
        manifest = out["manifest"]
        assert manifest["extra"]["peak_rss_bytes"] > 0
        assert manifest["ledger"]["run_id"] == "bench"
        on_disk = json.loads((tmp_path / "BENCH_x.json").read_text())
        assert on_disk["metric"] == 1.0
        assert on_disk["manifest"]["ledger"]["events"] == 1
        validate_manifest(on_disk["manifest"])


class TestObsConfig:
    def test_disabled_yields_null_ledger(self):
        assert ObsConfig().make_ledger() is NULL_LEDGER
        assert not ObsConfig().enabled

    def test_enabled_derives_run_id_from_parts(self, tmp_path):
        obs = ObsConfig(ledger_dir=str(tmp_path))
        a = obs.make_ledger("x", "y")
        b = obs.make_ledger("x", "y")
        assert a.run_id == b.run_id  # content-addressed
        assert a.path.parent == tmp_path


class TestObsCli:
    @pytest.fixture()
    def ledger_dir(self, tmp_path, workload):
        run_with_ledger(tmp_path, workload)
        return tmp_path

    def test_cli_run_writes_and_validates(self, tmp_path, capsys):
        led = tmp_path / "led"
        rc = main([
            "run", "--matrix", "KRO", "--scale", "tiny", "--k", "4",
            "--pes", "4", "--replay", "array",
            "--ledger", str(led),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ledger written" in out
        rc = main(["obs", "validate", "--require-dispatch", str(led)])
        assert rc == 0
        assert "validated" in capsys.readouterr().out

    def test_obs_report_text_and_json(self, ledger_dir, capsys):
        assert main(["obs", "report", str(ledger_dir)]) == 0
        text = capsys.readouterr().out
        assert "replay by level" in text
        assert "phase hotspots" in text
        assert main(["obs", "report", "--json", str(ledger_dir)]) == 0
        agg = json.loads(capsys.readouterr().out)
        assert agg["dispatch"]["total"] > 0
        assert agg["dispatch"]["by_level"]["l1"]["events"] > 0

    def test_obs_report_out_file(self, ledger_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main([
            "obs", "report", "--json", "--out", str(out),
            str(ledger_dir),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["events"] > 0

    def test_obs_report_empty_dir_errors(self, tmp_path, capsys):
        rc = main(["obs", "report", str(tmp_path / "nothing")])
        assert rc == 2
        assert "no ledger" in capsys.readouterr().err

    def test_obs_validate_catches_corruption(self, tmp_path, capsys):
        bad = tmp_path / "run-bad.jsonl"
        bad.write_text('{"e": "epoch", "t": 0.1, "run": "x"}\n')
        rc = main(["obs", "validate", str(bad)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_obs_schema_prints_json_schema(self, capsys):
        assert main(["obs", "schema"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["oneOf"]
