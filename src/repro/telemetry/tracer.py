"""Event tracer emitting Chrome trace-event JSON (Perfetto-loadable).

The tracer records *host wall-clock* spans around the phases of a
simulation — kernel, schedule build, epochs, per-chunk replay calls,
the terminating flush — so a run can be opened in Perfetto or
``chrome://tracing`` and inspected like any profiled program: where the
replay time goes, which epoch dominates, which PE chunk stalls the
round-robin.  Simulated-time quantities ride along in
span ``args`` rather than on the timeline (the simulator's virtual
nanoseconds and the host's microseconds must not be mixed on one axis).

The emitted JSON object format is the Trace Event Format understood by
Perfetto: ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` with
complete events (``ph: "X"``, microsecond ``ts``/``dur``), instants
(``"i"``), and thread-name metadata (``"M"``).  PE-parallel work is
mapped onto trace *threads* via ``tid`` so per-PE tracks line up.

Disabled tracers hand out one shared no-op span, so tracing sites cost
a single method call when tracing is off.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


class _NullSpan:
    """Shared no-op context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "cat", "tid", "args", "_start")

    def __init__(self, tracer, name, cat, tid, args):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.tid = tid
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = self.tracer._now_us()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        end = tracer._now_us()
        event = {
            "name": self.name,
            "cat": self.cat,
            "ph": "X",
            "ts": self._start,
            "dur": end - self._start,
            "pid": tracer.pid,
            "tid": self.tid,
        }
        if self.args:
            event["args"] = self.args
        tracer._events.append(event)


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


class EventTracer:
    """Collects trace events for one telemetry session."""

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        pid: int = 0,
    ) -> None:
        self.enabled = enabled
        self.pid = pid
        self._clock = clock
        self._t0 = clock() if enabled else 0.0
        self._events: List[dict] = []
        self._thread_names: Dict[int, str] = {}
        self._process_meta: Dict[int, Tuple[str, Optional[int]]] = {}

    def _now_us(self) -> float:
        return (self._clock() - self._t0) * 1e6

    # -- recording ---------------------------------------------------------

    def span(
        self,
        name: str,
        cat: str = "sim",
        tid: int = 0,
        args: Optional[dict] = None,
    ):
        """Context manager recording one complete ("X") event."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, cat, tid, args)

    def instant(
        self,
        name: str,
        cat: str = "sim",
        tid: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        if not self.enabled:
            return
        event = {
            "name": name, "cat": cat, "ph": "i", "s": "t",
            "ts": self._now_us(), "pid": self.pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def set_thread_name(self, tid: int, name: str) -> None:
        if self.enabled:
            self._thread_names[tid] = name

    def set_process_name(
        self, pid: int, name: str, sort_index: Optional[int] = None
    ) -> None:
        """Label a trace process row (e.g. one sweep worker).

        ``sort_index`` pins the row's position in the Perfetto process
        list; unnamed processes sort after named ones by pid.
        """
        if self.enabled:
            self._process_meta[pid] = (name, sort_index)

    @property
    def events(self) -> List[dict]:
        return list(self._events)

    # -- export ------------------------------------------------------------

    def to_chrome(self, metadata: Optional[dict] = None) -> dict:
        """The full Trace Event Format object."""
        meta_events = []
        for pid, (name, sort_index) in sorted(self._process_meta.items()):
            meta_events.append(
                {
                    "name": "process_name", "ph": "M", "pid": pid,
                    "tid": 0, "args": {"name": name},
                }
            )
            if sort_index is not None:
                meta_events.append(
                    {
                        "name": "process_sort_index", "ph": "M",
                        "pid": pid, "tid": 0,
                        "args": {"sort_index": sort_index},
                    }
                )
        meta_events += [
            {
                "name": "thread_name", "ph": "M", "pid": self.pid,
                "tid": tid, "args": {"name": name},
            }
            for tid, name in sorted(self._thread_names.items())
        ]
        payload = {
            "traceEvents": meta_events + self._events,
            "displayTimeUnit": "ms",
        }
        if metadata:
            payload["otherData"] = metadata
        return payload

    def write(self, path, metadata: Optional[dict] = None) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.to_chrome(metadata), indent=1) + "\n"
        )
        return path

    # -- profile -----------------------------------------------------------

    def profile(self, top_n: Optional[int] = None) -> List[PhaseSummary]:
        """Spans aggregated by (category, name), hottest total first."""
        acc: Dict[Tuple[str, str], PhaseSummary] = {}
        for e in self._events:
            if e.get("ph") != "X":
                continue
            key = (e.get("cat", ""), e["name"])
            row = acc.get(key)
            if row is None:
                row = acc[key] = PhaseSummary(e["name"], key[0])
            dur = e.get("dur", 0.0)
            row.count += 1
            row.total_us += dur
            if dur > row.max_us:
                row.max_us = dur
        rows = sorted(acc.values(), key=lambda r: -r.total_us)
        return rows[:top_n] if top_n is not None else rows

    def format_profile(self, top_n: int = 10) -> str:
        """Aligned text table of the hottest phases."""
        rows = self.profile(top_n)
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
