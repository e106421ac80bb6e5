"""Trace export (Chrome trace-event JSON), the profile table, ledger
spans and provenance manifest tests."""

import json

import pytest

from repro.config import scaled_config
from repro.jobmodel import config_fingerprint
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    NULL_LEDGER,
    RunLedger,
    chrome_trace,
    diff_manifests,
    format_profile,
    profile,
    run_manifest,
    stamp,
    validate_manifest,
    write_trace,
)
from repro.obs.ledger import NULL_SPAN


def span(name, cat, start_s, dur_s, **fields):
    """A recorded ``span`` event, as RunLedger.span writes it."""
    return {
        "e": "span", "t": start_s + dur_s, "run": "r" * 16,
        "name": name, "cat": cat, "start_s": start_s, "dur_s": dur_s,
        **fields,
    }


class TestTracer:
    def test_ledger_span_records_start_and_duration(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl", validate=True)
        with ledger.span("epoch[0]", cat="epoch", epoch=0) as sp:
            pass
        (e,) = ledger.events()
        assert e["e"] == "span" and e["name"] == "epoch[0]"
        assert e["epoch"] == 0
        assert e["dur_s"] == pytest.approx(sp.dur_s, abs=1e-9)
        assert 0 <= e["start_s"] <= e["t"]

    def test_span_records_complete_event(self):
        (e,) = chrome_trace(
            [span("epoch[0]", "epoch", 0.0, 0.002, pe=2, epoch=0)]
        )["traceEvents"][1:]
        assert e["ph"] == "X"
        assert e["name"] == "epoch[0]"
        assert e["cat"] == "epoch"
        assert e["tid"] == 3
        assert e["ts"] == pytest.approx(0.0)
        assert e["dur"] == pytest.approx(2000.0)  # 2 ms in us
        assert e["args"] == {"epoch": 0}

    def test_instant_event(self):
        epoch = {
            "e": "epoch", "t": 0.001, "run": "r" * 16, "epoch": 0,
            "gen_s": 0.0, "merge_s": 0.0, "replay_s": 0.0,
            "epoch_time_ns": 10.0, "dram_lines": 1, "critical_pe": 2,
        }
        (e,) = chrome_trace([epoch])["traceEvents"]
        assert e["name"] == "barrier[0]"
        assert e["ph"] == "i" and e["s"] == "t"
        assert e["ts"] == pytest.approx(1000.0)
        assert e["args"]["critical_pe"] == 2

    def test_disabled_tracer_shares_null_span(self):
        assert NULL_LEDGER.span("x") is NULL_SPAN
        assert NULL_LEDGER.span("y", cat="gen", pe=1) is NULL_SPAN
        with NULL_LEDGER.span("x"):
            pass
        assert NULL_LEDGER.events() == []
        assert chrome_trace(NULL_LEDGER.events())["traceEvents"] == []

    def test_chrome_trace_schema(self, tmp_path):
        events = [
            span("gen_epoch", "gen", 0.0, 0.001, pe=0, chunks=1),
            span("kernel", "kernel", 0.0, 0.01, nnz=9),
        ]
        path = write_trace(
            tmp_path / "t.json", events, metadata={"note": "hi"}
        )
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"note": "hi"}
        events = doc["traceEvents"]
        assert isinstance(events, list)
        # Thread-name metadata event comes first.
        assert events[0]["ph"] == "M"
        assert events[0]["args"] == {"name": "pe0"}
        for e in events:
            assert {"name", "ph", "pid", "tid"} <= set(e)
            if e["ph"] == "X":
                assert e["dur"] >= 0 and e["ts"] >= 0

    def test_profile_aggregates_by_cat_and_name(self):
        events = [
            span("chunk", "replay", 0.0, 0.001),
            span("chunk", "replay", 0.001, 0.003),
            span("epoch[0]", "epoch", 0.004, 0.01),
        ]
        rows = profile(events)
        assert [r.name for r in rows] == ["epoch[0]", "chunk"]
        chunk = rows[1]
        assert chunk.count == 2
        assert chunk.total_us == pytest.approx(4000.0)
        assert chunk.max_us == pytest.approx(3000.0)
        assert chunk.mean_us == pytest.approx(2000.0)
        assert profile(events, top_n=1)[0].name == "epoch[0]"

    def test_format_profile(self):
        assert format_profile([]) == "(no spans recorded)"
        text = format_profile([span("kernel", "kernel", 0.0, 0.005)])
        assert "phase" in text and "kernel" in text and "total ms" in text


class TestProvenance:
    def test_manifest_has_required_fields(self):
        cfg = scaled_config(4)
        m = run_manifest(
            config=cfg, workload={"matrix": "KRO"}, seed=7,
            argv=["run", "--matrix", "KRO"],
        )
        validate_manifest(m)
        assert m["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert m["config"]["fingerprint"] == config_fingerprint(cfg)
        assert m["config"]["num_pes"] == 4
        assert m["workload"] == {"matrix": "KRO"}
        assert m["seed"] == 7
        assert m["argv"] == ["run", "--matrix", "KRO"]
        assert m["host"]["python"]
        assert json.loads(json.dumps(m)) == m  # JSON-serialisable

    def test_fingerprint_stable_and_sensitive(self):
        a = scaled_config(4)
        b = scaled_config(4)
        c = scaled_config(8)
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(c)
        with pytest.raises(TypeError):
            config_fingerprint("not a config")

    def test_validate_rejects_bad_manifests(self):
        with pytest.raises(ValueError):
            validate_manifest([])
        with pytest.raises(ValueError, match="schema_version"):
            validate_manifest({"created_utc": "x", "host": {}})
        with pytest.raises(ValueError, match="positive int"):
            validate_manifest(
                {"schema_version": 0, "created_utc": "x", "host": {}}
            )

    def test_stamp_preserves_measured_numbers(self):
        payload = {"headline_speedup": 3.19, "workloads": [1, 2]}
        stamped = stamp(payload, workload={"w": 1})
        assert stamped["headline_speedup"] == 3.19
        assert stamped["workloads"] == [1, 2]
        assert "manifest" not in payload  # original untouched
        validate_manifest(stamped["manifest"])

    def test_diff_manifests_reports_dotted_leaves(self):
        a = run_manifest(config=scaled_config(4), seed=1)
        b = run_manifest(config=scaled_config(8), seed=1)
        d = diff_manifests(a, b)
        assert "config.fingerprint" in d
        assert "config.num_pes" in d
        assert d["config.num_pes"] == (4, 8)
        assert "seed" not in d
        assert diff_manifests(a, a) == {}

