"""Unit tests for the run-ledger flight recorder (repro.obs)."""

import json

import numpy as np
import pytest

from repro.obs.schema import DISPATCH_LEVELS
from repro.obs import (
    EVENT_TYPES,
    LEDGER_SCHEMA_VERSION,
    NULL_LEDGER,
    LedgerSchemaError,
    RunLedger,
    aggregate,
    as_json_schema,
    derive_run_id,
    file_digest,
    format_report,
    merge_shards,
    open_run_ledger,
    peak_rss_bytes,
    read_events,
    shard_path,
    validate_event,
    validate_ledgers,
)


def _ev(etype="run_start", **overrides):
    """A schema-valid event of the given type."""
    base = {
        "run_start": {
            "kernel": "spmm", "execution": "vectorized",
            "replay": "array", "config_fingerprint": "ab" * 32,
            "pid": 1,
        },
        "run_end": {"status": "ok", "wall_s": 0.5},
        "epoch": {
            "epoch": 0, "gen_s": 0.1, "merge_s": 0.02, "replay_s": 0.2,
            "epoch_time_ns": 1e6, "dram_lines": 10, "critical_pe": 0,
        },
        "checkpoint": {"epoch": 0, "wall_s": 0.01},
        "retry": {
            "attempt": 1, "execution": "vectorized", "replay": "array",
            "cause": "OSError('x')", "backoff_s": 0.05,
        },
        "degradation": {
            "from_execution": "vectorized", "from_replay": "array",
            "to_execution": "scalar", "to_replay": "scalar",
            "cause": "WatchdogTimeout('t')",
        },
        "sweep_job": {
            "index": 0, "status": "completed", "key": "ff" * 32,
            "driver": "run",
        },
        "cache_hit": {"index": 1, "key": "ee" * 32, "driver": "run"},
        "service": {
            "status": "served", "key": "dd" * 32, "tenant": "anonymous",
            "priority": "interactive", "source": "memo", "code": 200,
            "wall_s": 0.001,
        },
        "dispatch": {
            "cache": "l1[0]", "level": "l1", "events": 500,
            "chosen": "native", "measured_us": 95.0,
        },
        "span": {
            "name": "gen_epoch", "cat": "gen", "start_s": 0.05,
            "dur_s": 0.04, "pe": 3, "epoch": 0, "chunks": 2,
        },
    }[etype]
    ev = dict(base)
    ev.update({"e": etype, "t": 0.1, "run": "a" * 16})
    ev.update(overrides)
    return ev


class TestSchema:
    def test_every_type_has_a_valid_exemplar(self):
        for etype in EVENT_TYPES:
            validate_event(_ev(etype))

    def test_unknown_type_rejected(self):
        with pytest.raises(LedgerSchemaError, match="unknown event"):
            validate_event(_ev("run_end", e="nope"))

    def test_missing_required_field_rejected(self):
        ev = _ev("dispatch")
        del ev["measured_us"]
        with pytest.raises(LedgerSchemaError, match="measured_us"):
            validate_event(ev)

    def test_unknown_field_rejected(self):
        # Closed taxonomy: extras are schema violations, not extensions.
        with pytest.raises(LedgerSchemaError, match="unknown fields"):
            validate_event(_ev("epoch", surprise=1))

    def test_wrong_type_rejected(self):
        with pytest.raises(LedgerSchemaError):
            validate_event(_ev("epoch", gen_s="fast"))

    def test_bool_is_not_an_int(self):
        with pytest.raises(LedgerSchemaError):
            validate_event(_ev("epoch", epoch=True))

    def test_enum_values_enforced(self):
        with pytest.raises(LedgerSchemaError):
            validate_event(_ev("dispatch", chosen="gpu"))
        with pytest.raises(LedgerSchemaError):
            validate_event(_ev("run_end", status="meh"))

    def test_vrf_walk_field(self):
        """``run_end`` records which walks ran in one ``kernels`` field,
        which replaced ``vrf_walk``."""
        for impl in ("native", "python"):
            validate_event(_ev("run_end", kernels=impl))
            validate_event(_ev("dispatch", chosen=impl))
        with pytest.raises(LedgerSchemaError):
            validate_event(_ev("run_end", kernels="numba"))
        with pytest.raises(LedgerSchemaError):
            validate_event(_ev("run_end", kernels=1))
        with pytest.raises(LedgerSchemaError, match="unknown fields"):
            validate_event(_ev("run_end", vrf_walk="native"))

    def test_envelope_enforced(self):
        ev = _ev("checkpoint")
        del ev["run"]
        with pytest.raises(LedgerSchemaError):
            validate_event(ev)
        with pytest.raises(LedgerSchemaError):
            validate_event(_ev("checkpoint", t=-1.0))

    @pytest.mark.parametrize("level", ["stlb", "bbf", "victim"])
    def test_fully_associative_and_bypass_levels(self, level):
        # The STLB, the BBF stream buffer and the victim cache replay
        # through the same level walk and record their dispatch.
        validate_event(_ev("dispatch", level=level, cache=f"{level}[0]"))
        with pytest.raises(LedgerSchemaError, match="level"):
            validate_event(_ev("dispatch", level=f"{level}2"))

    def test_nullable_array_prediction(self):
        # The cost model and its predictions are gone: a dispatch event
        # carrying them, or a choice it used to make, is invalid.
        for retired in ("predicted_array_us", "predicted_py_us",
                        "miss_rate", "hint", "reason", "bailed", "sets"):
            with pytest.raises(LedgerSchemaError, match="unknown fields"):
                validate_event(_ev("dispatch", **{retired: None}))
        for chosen in ("array", "dict", "batched"):
            with pytest.raises(LedgerSchemaError, match="chosen"):
                validate_event(_ev("dispatch", chosen=chosen))

    def test_json_schema_document(self):
        doc = as_json_schema()
        assert doc["$schema"].startswith("http")
        branches = {
            b["properties"]["e"]["const"] for b in doc["oneOf"]
        }
        assert branches == set(EVENT_TYPES)


class TestRunLedger:
    def test_events_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl", run_id="abc")
        ledger.emit("checkpoint", epoch=0, wall_s=0.01)
        ledger.emit("checkpoint", epoch=1, wall_s=0.02)
        ledger.close()
        evs = read_events(tmp_path / "run.jsonl")
        assert [e["epoch"] for e in evs] == [0, 1]
        assert all(e["run"] == "abc" for e in evs)
        assert evs[0]["t"] <= evs[1]["t"]  # monotonic within a ledger

    def test_buffering_defers_the_write(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path, flush_every=100)
        ledger.emit("checkpoint", epoch=0, wall_s=0.0)
        assert not path.exists()  # still buffered
        ledger.flush()
        assert len(read_events(path)) == 1

    def test_flush_threshold(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path, flush_every=3)
        for i in range(3):
            ledger.emit("checkpoint", epoch=i, wall_s=0.0)
        assert len(read_events(path)) == 3  # hit the threshold

    def test_numpy_scalars_fold_to_plain_json(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl", validate=True)
        ledger.emit(
            "checkpoint",
            epoch=np.int64(2),
            wall_s=np.float32(0.5),
        )
        ledger.close()
        ev = read_events(tmp_path / "run.jsonl")[0]
        assert ev["epoch"] == 2 and isinstance(ev["epoch"], int)

    def test_validate_mode_raises_on_bad_event(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl", validate=True)
        with pytest.raises(LedgerSchemaError):
            ledger.emit("checkpoint", epoch=0)  # wall_s missing

    def test_summary_has_digest_and_count(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl", run_id="abc")
        ledger.emit("checkpoint", epoch=0, wall_s=0.0)
        s = ledger.summary()
        assert s["schema_version"] == LEDGER_SCHEMA_VERSION
        assert s["run_id"] == "abc"
        assert s["events"] == 1
        assert s["digest"] == file_digest(tmp_path / "run.jsonl")
        assert s["digest"] is not None

    def test_open_run_ledger_names_file_by_run_id(self, tmp_path):
        ledger = open_run_ledger(tmp_path, run_id="deadbeef")
        assert ledger.path.name == "run-deadbeef.jsonl"

    def test_derive_run_id_is_content_addressed(self):
        assert derive_run_id("a", "b") == derive_run_id("a", "b")
        assert derive_run_id("a", "b") != derive_run_id("ab")
        assert len(derive_run_id("x")) == 16
        # Entropy mode: distinct across calls.
        assert derive_run_id() != derive_run_id()


class TestNullLedger:
    def test_null_ledger_records_nothing(self, tmp_path):
        assert NULL_LEDGER.enabled is False
        NULL_LEDGER.emit("dispatch", anything="goes")
        NULL_LEDGER.flush()
        NULL_LEDGER.close()
        assert NULL_LEDGER.summary() is None
        assert list(tmp_path.iterdir()) == []

    def test_null_ledger_is_a_context_manager(self):
        with NULL_LEDGER as led:
            assert led is NULL_LEDGER


class TestShards:
    def test_merge_is_index_ordered_and_deletes_shards(self, tmp_path):
        # Write shards out of order; the merge must come back sorted by
        # job index (the zero-padded filename), not creation order.
        for index in (2, 0, 1):
            shard = RunLedger(
                shard_path(tmp_path, index, "ab" * 32),
                run_id=("ab" * 32)[:16],
            )
            shard.emit(
                "sweep_job", index=index, status="completed",
                key="ab" * 32, driver="t",
            )
            shard.close()
        parent = RunLedger(tmp_path / "run-parent.jsonl", run_id="p")
        merged = merge_shards(tmp_path, parent)
        parent.close()
        assert merged == 3
        evs = read_events(parent.path)
        assert [e["index"] for e in evs] == [0, 1, 2]
        assert not list(tmp_path.glob("shard-*.jsonl"))

    def test_merge_limited_to_finished_jobs(self, tmp_path):
        # A job still running keeps its shard: merging it now would
        # lose whatever the worker appends between read and unlink.
        for index, key in ((0, "ab" * 32), (1, "cd" * 32)):
            shard = RunLedger(shard_path(tmp_path, index, key), run_id="j")
            shard.emit(
                "sweep_job", index=index, status="started", key=key,
                driver="t",
            )
            shard.close()
        parent = RunLedger(tmp_path / "run-parent.jsonl", run_id="p")
        assert merge_shards(tmp_path, parent, jobs=[(1, "cd" * 32)]) == 1
        assert merge_shards(tmp_path, parent, jobs=[(2, "ef" * 32)]) == 0
        parent.close()
        assert [e["index"] for e in read_events(parent.path)] == [1]
        assert shard_path(tmp_path, 0, "ab" * 32).exists()
        assert not shard_path(tmp_path, 1, "cd" * 32).exists()

    def test_shard_dirs_are_private_per_runner(self, tmp_path):
        from repro.obs.ledger import close_shard_dir, open_shard_dir

        ledgers = [
            RunLedger(tmp_path / f"run-{name}.jsonl", run_id=name)
            for name in ("a", "b")
        ]
        dirs = [open_shard_dir(ledger) for ledger in ledgers]
        assert dirs[0] != dirs[1]
        # Both runners write a shard for the same (index, key).
        for ledger, d in zip(ledgers, dirs):
            shard = RunLedger(shard_path(d, 0, "ab" * 32), run_id="job")
            shard.emit(
                "sweep_job", index=0, status="completed", key="ab" * 32,
                driver=ledger.run_id,
            )
            shard.close()
        for ledger, d in zip(ledgers, dirs):
            assert close_shard_dir(d, ledger) == 1
            ledger.close()
            assert not d.exists()
            assert [
                e["driver"] for e in read_events(ledger.path)
            ] == [ledger.run_id]

    def test_shard_events_keep_their_own_run_id(self, tmp_path):
        shard = RunLedger(shard_path(tmp_path, 0, "cd" * 32), run_id="job0")
        shard.emit(
            "sweep_job", index=0, status="started", key="cd" * 32,
            driver="t",
        )
        shard.close()
        parent = RunLedger(tmp_path / "run-p.jsonl", run_id="parent")
        merge_shards(tmp_path, parent)
        parent.close()
        assert read_events(parent.path)[0]["run"] == "job0"


class TestSweepJobEvents:
    """Pin the three core sweep_job shapes end to end.

    The crash-safety audit reads these events back: every shape must
    carry the executing ``pid`` (the failed shape used to omit it) and
    the 1-based lease ``attempt``.
    """

    def _emit(self, tmp_path, **fields):
        ledger = RunLedger(tmp_path / "run.jsonl", validate=True)
        ledger.emit("sweep_job", **fields)
        ledger.close()
        return read_events(tmp_path / "run.jsonl")[0]

    def test_started_shape(self, tmp_path):
        ev = self._emit(
            tmp_path, index=0, status="started", key="ab" * 32,
            driver="fig14", pid=4242, attempt=1,
        )
        assert ev["pid"] == 4242
        assert ev["attempt"] == 1

    def test_completed_shape(self, tmp_path):
        ev = self._emit(
            tmp_path, index=0, status="completed", key="ab" * 32,
            driver="fig14", wall_s=0.5, pid=4242, attempt=2,
        )
        assert ev["pid"] == 4242
        assert ev["attempt"] == 2

    def test_failed_shape_carries_pid(self, tmp_path):
        # Regression: the failed shape omitted the pid that started and
        # completed events carried, breaking per-worker forensics.
        ev = self._emit(
            tmp_path, index=3, status="failed", key="ab" * 32,
            driver="fig14", wall_s=0.1, error="ValueError('x')",
            pid=4242, attempt=1,
        )
        assert ev["pid"] == 4242
        assert ev["attempt"] == 1
        assert ev["error"] == "ValueError('x')"

    def test_requeued_and_quarantined_statuses_validate(self):
        validate_event(_ev(
            "sweep_job", status="requeued", pid=1, attempt=2,
            error="worker died (exitcode=-9)",
        ))
        validate_event(_ev(
            "sweep_job", status="quarantined", pid=1, attempt=3,
            error="worker died (exitcode=-9)",
        ))

    def test_unknown_status_rejected(self):
        with pytest.raises(LedgerSchemaError, match="status"):
            validate_event(_ev("sweep_job", status="paused"))


class TestReport:
    def _write(self, tmp_path, events, name="run-x.jsonl"):
        path = tmp_path / name
        with open(path, "w") as fh:
            for ev in events:
                fh.write(json.dumps(ev) + "\n")
        return path

    def test_aggregate_phases_and_runs(self, tmp_path):
        self._write(tmp_path, [
            _ev("run_start"),
            _ev("epoch"),
            _ev("epoch", epoch=1, gen_s=0.3),
            _ev("checkpoint"),
            _ev("run_end", time_ns=2e6),
        ])
        agg = aggregate([tmp_path])
        assert agg["events"] == 5
        assert agg["runs"] == {"started": 1, "ok": 1, "failed": 0}
        assert agg["phases"]["gen"]["seconds"] == pytest.approx(0.4)
        assert agg["phases"]["gen"]["epochs"] == 2
        assert agg["checkpoints"]["count"] == 1
        assert agg["sim_time_ns"] == pytest.approx(2e6)

    def test_dispatch_rolls_up_per_level_and_walk(self, tmp_path):
        self._write(tmp_path, [
            _ev("dispatch"),
            _ev("dispatch", measured_us=200.0, events=100),
            _ev("dispatch", chosen="python", measured_us=50.0),
            _ev("dispatch", level="llc", cache="llc", events=7),
        ])
        agg = aggregate([tmp_path])
        d = agg["dispatch"]
        assert d["total"] == 4
        l1 = d["by_level"]["l1"]
        assert l1["considered"] == 3
        assert l1["chosen"] == {"native": 2, "python": 1}
        assert l1["events"] == 1100
        assert l1["measured_us"] == pytest.approx(345.0)
        assert d["by_level"]["llc"]["events"] == 7
        assert "misprediction_rate" not in d

    def test_sweep_requeue_and_quarantine_aggregate(self, tmp_path):
        self._write(tmp_path, [
            _ev("sweep_job", status="started", pid=1, attempt=1),
            _ev(
                "sweep_job", status="requeued", pid=1, attempt=2,
                error="worker died (exitcode=-9)",
            ),
            _ev("sweep_job", status="started", pid=1, attempt=2),
            _ev("sweep_job", status="completed", pid=2, attempt=2),
            _ev(
                "sweep_job", index=1, status="quarantined", pid=1,
                attempt=3, error="worker died (exitcode=-9)",
            ),
        ])
        agg = aggregate([tmp_path])
        sweep = agg["sweep"]
        assert sweep["completed"] == 1
        assert sweep["requeued"] == 1
        assert sweep["quarantined"] == 1
        rows = [r for r in agg["timeline"] if r["event"] == "sweep_job"]
        descs = [r["description"] for r in rows]
        assert any("requeued" in d for d in descs)
        assert any(
            "quarantined" in d and "attempt 3" in d for d in descs
        )
        text = format_report(agg)
        assert "1 requeued" in text
        assert "1 quarantined" in text

    def test_retry_and_degradation_timeline(self, tmp_path):
        self._write(tmp_path, [
            _ev("retry"),
            _ev("degradation"),
            _ev("run_end", status="failed", error="boom", wall_s=1.0),
        ])
        agg = aggregate([tmp_path])
        assert agg["retries"] == 1
        assert agg["degradations"] == 1
        assert agg["runs"]["failed"] == 1
        assert [r["event"] for r in agg["timeline"]] == [
            "retry", "degradation", "run_end",
        ]

    def test_format_report_renders(self, tmp_path):
        self._write(tmp_path, [
            _ev("run_start"), _ev("epoch"), _ev("dispatch"),
            _ev("run_end"),
        ])
        text = format_report(aggregate([tmp_path]))
        assert "phase hotspots" in text
        assert "replay by level" in text
        assert "l1" in text

    def test_report_counts_runs_per_vrf_walk(self, tmp_path):
        self._write(tmp_path, [
            _ev("run_end", kernels="native"),
            _ev("run_end", kernels="python"),
            _ev("run_end", kernels="python"),
            _ev("run_end"),
        ])
        agg = aggregate([tmp_path])
        assert agg["kernels"] == {"native": 1, "python": 2}
        assert "kernels      : native=1, python=2 runs" in format_report(agg)

    def test_format_report_lists_every_level_in_hierarchy_order(
        self, tmp_path
    ):
        self._write(tmp_path, [
            _ev("dispatch", level=level)
            for level in ("victim", "llc", "stlb", "bbf", "l2", "l1")
        ])
        text = format_report(aggregate([tmp_path]))
        rows = [
            line.split()[0] for line in text.splitlines()
            if line.split() and line.split()[0] in DISPATCH_LEVELS
        ]
        assert rows == list(DISPATCH_LEVELS)

    def test_validate_ledgers_reports_context(self, tmp_path):
        path = self._write(tmp_path, [_ev("epoch"), {"e": "epoch"}])
        with pytest.raises(LedgerSchemaError, match=f"{path}:2"):
            validate_ledgers([tmp_path])

    def test_validate_require_dispatch(self, tmp_path):
        self._write(tmp_path, [_ev("run_start")])
        info = validate_ledgers([tmp_path])
        assert info["events"] == 1
        with pytest.raises(ValueError, match="dispatch"):
            validate_ledgers([tmp_path], require_dispatch=True)


def test_peak_rss_is_positive_here():
    rss = peak_rss_bytes()
    assert rss is not None and rss > 1024 * 1024  # >1MB for a python proc
