"""Unit tests for the metrics registry and its exporters."""

import json

import pytest

from repro.obs.exporters import to_csv, to_json, to_prometheus, write_metrics
from repro.obs.metrics import Histogram, MetricsRegistry


class TestLabelSemantics:
    def test_same_labels_same_child(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", level="l1", unit="pe0")
        b = reg.counter("hits", unit="pe0", level="l1")  # order-free
        assert a is b

    def test_different_labels_different_children(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", level="l1")
        b = reg.counter("hits", level="l2")
        assert a is not b
        a.inc(3)
        b.inc(5)
        assert reg.value("hits", level="l1") == 3
        assert reg.value("hits", level="l2") == 5

    def test_label_values_coerced_to_str(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", pe=0)
        b = reg.counter("hits", pe="0")
        assert a is b

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="counter"):
            reg.gauge("x")

    def test_label_key_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", level="l1")
        with pytest.raises(ValueError, match="labels"):
            reg.counter("x", unit="pe0")

    def test_total_filters_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("hits", level="l1", unit="pe0").inc(1)
        reg.counter("hits", level="l1", unit="pe1").inc(2)
        reg.counter("hits", level="l2", unit="g0").inc(10)
        assert reg.total("hits", level="l1") == 3
        assert reg.total("hits") == 13
        assert reg.total("absent") == 0

    def test_value_of_unregistered_is_zero(self):
        assert MetricsRegistry().value("nope", level="l1") == 0.0


class TestInstruments:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_and_inc(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(2.5)
        g.inc(0.5)
        assert g.value == 3.0

    def test_histogram_buckets_and_stats(self):
        h = Histogram(bounds=(1, 4, 16))
        for v in (0, 1, 3, 20):
            h.observe(v)
        assert h.count == 4
        assert h.total == 24
        assert (h.min, h.max) == (0, 20)
        assert h.mean == 6.0
        # le=1 cumulative 2 (0 and 1), le=4 cumulative 3, le=16 still 3,
        # +Inf catches 20.
        assert h.cumulative_buckets() == [
            (1, 2), (4, 3), (16, 3), (float("inf"), 4)
        ]

    def test_histogram_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(4, 1))


@pytest.fixture()
def populated():
    reg = MetricsRegistry()
    reg.counter("spade_hits_total", help="hits", level="l1").inc(7)
    reg.gauge("spade_imbalance").set(1.25)
    h = reg.histogram("spade_batch", bounds=(10, 100))
    h.observe(5)
    h.observe(50)
    return reg


class TestExporters:
    def test_json_round_trips(self, populated):
        doc = json.loads(to_json(populated))
        assert doc["schema_version"] == 1
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["spade_hits_total"]["value"] == 7
        assert by_name["spade_hits_total"]["labels"] == {"level": "l1"}
        hist = by_name["spade_batch"]
        assert hist["count"] == 2 and hist["sum"] == 55
        assert hist["buckets"][-1]["le"] == "+Inf"

    def test_csv_has_one_row_per_child(self, populated):
        lines = to_csv(populated).strip().splitlines()
        assert lines[0].startswith("name,kind,labels")
        assert len(lines) == 4  # header + 3 children
        assert any("level=l1" in ln for ln in lines)

    def test_prometheus_format(self, populated):
        text = to_prometheus(populated)
        assert "# TYPE spade_hits_total counter" in text
        assert 'spade_hits_total{level="l1"} 7' in text
        assert 'spade_batch_bucket{le="+Inf"} 2' in text
        assert "spade_batch_sum 55" in text
        assert "spade_batch_count 2" in text
        assert "# HELP spade_hits_total hits" in text

    def test_prometheus_escapes_label_values(self):
        # The exposition format requires backslash-escaping of \, ", and
        # newline inside label values; an unescaped value would corrupt
        # the whole scrape.
        reg = MetricsRegistry()
        reg.counter(
            "spade_paths_total",
            path='C:\\tmp\\"run"\nnext',
        ).inc(1)
        text = to_prometheus(reg)
        assert (
            'spade_paths_total{path="C:\\\\tmp\\\\\\"run\\"\\nnext"} 1'
            in text
        )
        assert "\n\nnext" not in text  # no literal newline inside a value

    def test_prometheus_escape_round_trips(self):
        from repro.obs.exporters import _prom_escape

        assert _prom_escape('a"b') == 'a\\"b'
        assert _prom_escape("a\\b") == "a\\\\b"
        assert _prom_escape("a\nb") == "a\\nb"
        assert _prom_escape("plain") == "plain"

    def test_prometheus_empty_histogram_renders(self):
        # A histogram with zero observations must still expose its
        # cumulative buckets (all 0), a 0 sum, and a 0 count.
        reg = MetricsRegistry()
        reg.histogram("spade_empty", bounds=(1, 10))
        text = to_prometheus(reg)
        assert 'spade_empty_bucket{le="1"} 0' in text
        assert 'spade_empty_bucket{le="10"} 0' in text
        assert 'spade_empty_bucket{le="+Inf"} 0' in text
        assert "spade_empty_sum 0" in text
        assert "spade_empty_count 0" in text

    def test_write_metrics_infers_format(self, populated, tmp_path):
        j = write_metrics(populated, tmp_path / "m.json")
        c = write_metrics(populated, tmp_path / "m.csv")
        p = write_metrics(populated, tmp_path / "m.prom")
        assert json.loads(j.read_text())["schema_version"] == 1
        assert c.read_text().startswith("name,kind")
        assert "# TYPE" in p.read_text()
        with pytest.raises(ValueError):
            write_metrics(populated, tmp_path / "m.xml", fmt="xml")
