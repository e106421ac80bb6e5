"""Chrome trace-event JSON and the ``--profile`` table, exported from a
run ledger's events.

The ledger's ``span`` events are host wall-clock phases of a simulation
— kernel, schedule build, epochs, per-PE trace generation, the
terminating flush — so a run can be opened in Perfetto or
``chrome://tracing`` and inspected like any profiled program.  Each
``epoch`` event becomes a ``barrier[i]`` instant carrying the epoch's
simulated facts in ``args`` (the simulator's virtual nanoseconds and
the host's microseconds must not be mixed on one axis).

The emitted JSON object is the Trace Event Format understood by
Perfetto: ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` with
complete events (``ph: "X"``, microsecond ``ts``/``dur``), instants
(``"i"``), and metadata (``"M"``).  Per-PE spans go on thread ``pe+1``
(named ``pe<i>``); the events of a sweep job's shard go on the process
of the worker that ran it (named ``sweep worker <pid>``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

_SPAN_KEYS = frozenset(
    ("e", "t", "run", "name", "cat", "start_s", "dur_s", "pe")
)
_BARRIER_ARGS = (
    "epoch_time_ns", "bandwidth_time_ns", "critical_pe", "dram_lines",
    "total_requests",
)


def chrome_trace(
    events: Iterable[Mapping], metadata: Optional[dict] = None
) -> dict:
    """The full Trace Event Format object of ``events``."""
    events = list(events)
    worker_pid = {
        ev["run"]: ev["pid"]
        for ev in events
        if ev.get("e") == "sweep_job" and ev.get("status") == "started"
        and "pid" in ev
    }
    trace: List[dict] = []
    tracks = set()
    for ev in events:
        kind = ev.get("e")
        pid = worker_pid.get(ev.get("run"), 0)
        if kind == "span":
            tid = ev["pe"] + 1 if "pe" in ev else 0
            if tid:
                tracks.add((pid, tid))
            out = {
                "name": ev["name"], "cat": ev["cat"], "ph": "X",
                "ts": ev["start_s"] * 1e6, "dur": ev["dur_s"] * 1e6,
                "pid": pid, "tid": tid,
            }
            args = {k: v for k, v in ev.items() if k not in _SPAN_KEYS}
        elif kind == "epoch":
            out = {
                "name": f"barrier[{ev['epoch']}]", "cat": "epoch",
                "ph": "i", "s": "t", "ts": ev["t"] * 1e6,
                "pid": pid, "tid": 0,
            }
            args = {k: ev[k] for k in _BARRIER_ARGS if k in ev}
        else:
            continue
        if args:
            out["args"] = args
        trace.append(out)
    meta: List[dict] = []
    for sort_index, pid in enumerate(sorted(set(worker_pid.values())), 1):
        meta += [
            {
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"sweep worker {pid}"},
            },
            {
                "name": "process_sort_index", "ph": "M", "pid": pid,
                "tid": 0, "args": {"sort_index": sort_index},
            },
        ]
    meta += [
        {
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": f"pe{tid - 1}"},
        }
        for pid, tid in sorted(tracks)
    ]
    payload = {"traceEvents": meta + trace, "displayTimeUnit": "ms"}
    if metadata:
        payload["otherData"] = metadata
    return payload


def write_trace(
    path, events: Iterable[Mapping], metadata: Optional[dict] = None
) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(chrome_trace(events, metadata), indent=1) + "\n"
    )
    return path


class PhaseSummary:
    """One row of the aggregated profile (``--profile``)."""

    __slots__ = ("name", "cat", "count", "total_us", "max_us")

    def __init__(self, name: str, cat: str) -> None:
        self.name = name
        self.cat = cat
        self.count = 0
        self.total_us = 0.0
        self.max_us = 0.0

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0


def profile(
    events: Iterable[Mapping], top_n: Optional[int] = None
) -> List[PhaseSummary]:
    """Spans aggregated by (category, name), hottest total first."""
    acc: Dict[Tuple[str, str], PhaseSummary] = {}
    for ev in events:
        if ev.get("e") != "span":
            continue
        key = (ev["cat"], ev["name"])
        row = acc.get(key)
        if row is None:
            row = acc[key] = PhaseSummary(ev["name"], ev["cat"])
        dur = ev["dur_s"] * 1e6
        row.count += 1
        row.total_us += dur
        row.max_us = max(row.max_us, dur)
    rows = sorted(acc.values(), key=lambda r: -r.total_us)
    return rows[:top_n] if top_n is not None else rows


def format_profile(events: Iterable[Mapping], top_n: int = 10) -> str:
    """Aligned text table of the hottest phases."""
    rows = profile(events, top_n)
    if not rows:
        return "(no spans recorded)"
    headers = ("phase", "cat", "count", "total ms", "mean us", "max us")
    table = [
        (
            r.name, r.cat, str(r.count),
            f"{r.total_us / 1e3:.3f}",
            f"{r.mean_us:.1f}", f"{r.max_us:.1f}",
        )
        for r in rows
    ]
    widths = [
        max(len(h), *(len(t[i]) for t in table))
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += [
        "  ".join(c.ljust(w) for c, w in zip(row, widths))
        for row in table
    ]
    return "\n".join(lines)
