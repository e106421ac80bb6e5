"""Metric exporters: JSON, CSV, and Prometheus text format.

All three render the same :meth:`MetricsRegistry.samples` surface;
JSON is the lossless interchange form (histograms keep their buckets),
CSV flattens to one row per child for spreadsheets, and the Prometheus
text format feeds scrape-based dashboards (histograms expand to the
conventional ``_bucket``/``_sum``/``_count`` series).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Optional

from repro.obs.metrics import MetricsRegistry

FORMATS = ("json", "csv", "prom")


def to_json(registry: MetricsRegistry, indent: int = 2) -> str:
    return json.dumps(registry.as_dict(), indent=indent) + "\n"


def _labels_csv(labels: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(labels.items()))


def to_csv(registry: MetricsRegistry) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["name", "kind", "labels", "value", "count", "min", "max", "mean"]
    )
    for s in registry.samples():
        if s.kind == "histogram":
            h = s.instrument
            writer.writerow([
                s.name, s.kind, _labels_csv(s.labels),
                h.total, h.count, h.min, h.max, h.mean,
            ])
        else:
            writer.writerow([
                s.name, s.kind, _labels_csv(s.labels),
                s.instrument.value, "", "", "", "",
            ])
    return buf.getvalue()


def _prom_escape(value) -> str:
    """Escape a label value per the Prometheus text exposition format:
    backslash, double-quote, and newline must be backslash-escaped."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_prom_escape(v)}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _prom_number(value) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus/OpenMetrics text exposition of the registry."""
    lines = []
    seen_headers = set()
    for s in registry.samples():
        if s.name not in seen_headers:
            seen_headers.add(s.name)
            if s.help:
                lines.append(f"# HELP {s.name} {s.help}")
            lines.append(f"# TYPE {s.name} {s.kind}")
        if s.kind == "histogram":
            h = s.instrument
            for le, c in h.cumulative_buckets():
                lines.append(
                    f"{s.name}_bucket"
                    f"{_prom_labels(s.labels, {'le': _prom_number(le)})}"
                    f" {c}"
                )
            lines.append(
                f"{s.name}_sum{_prom_labels(s.labels)} "
                f"{_prom_number(h.total)}"
            )
            lines.append(
                f"{s.name}_count{_prom_labels(s.labels)} {h.count}"
            )
        else:
            lines.append(
                f"{s.name}{_prom_labels(s.labels)} "
                f"{_prom_number(s.instrument.value)}"
            )
    return "\n".join(lines) + "\n"


def infer_format(path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".prom", ".txt"):
        return "prom"
    return "json"


def write_metrics(
    registry: MetricsRegistry, path, fmt: Optional[str] = None
) -> Path:
    """Write the registry to ``path`` in ``fmt`` (inferred from the
    file suffix when omitted: .csv, .prom/.txt, else JSON)."""
    fmt = fmt or infer_format(path)
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    render = {"json": to_json, "csv": to_csv, "prom": to_prometheus}[fmt]
    path = Path(path)
    path.write_text(render(registry))
    return path
