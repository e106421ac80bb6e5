"""Metrics: the registry data model and its derivation from one run.

Nothing in the simulator updates a metric while it runs.  The metrics
of a run are a *view*: :func:`run_metrics` derives them from what the
engine returns (the :class:`~repro.core.accelerator.ExecutionReport`:
traffic per level, per unit and per region, epoch timings, the
schedule) plus the host-side facts of its run ledger (spans, epoch
events, checkpoints, retries);
:func:`sweep_metrics` and :func:`service_metrics` derive the sweep and
service series from the accounting those layers already keep.  The
exporters (:mod:`repro.obs.exporters`) render a registry as JSON, CSV
or Prometheus text.

Label semantics follow the Prometheus data model: a metric *family* is
identified by its name and has one fixed kind (counter/gauge/histogram)
and one fixed label-key set, both pinned at first registration; each
distinct label-value combination owns one child instrument, and asking
for the same combination again returns the *same* child (identity, not
equality).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Last-written value (e.g. schedule load imbalance)."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    4.0 ** e for e in range(13)
)
"""Power-of-four upper bounds: 1 .. 16.7M, +Inf implicit.  Wide enough
for both replay-batch access counts and nanosecond-scale waits."""


class Histogram:
    """Cumulative-bucket histogram plus count/sum/min/max."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS):
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        # One slot per finite bound plus the +Inf overflow slot.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def value(self) -> float:
        """Histogram 'value' for uniform queries: the sum."""
        return self.total

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style (le, cumulative count) pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.bounds, self.bucket_counts):
            running += c
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


class MetricSample:
    """One (family, labelset, instrument) row from ``samples()``."""

    __slots__ = ("name", "kind", "help", "labels", "instrument")

    def __init__(self, name, kind, help_text, labels, instrument):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labels = labels
        self.instrument = instrument

    @property
    def value(self) -> float:
        return self.instrument.value


class _Family:
    __slots__ = ("name", "kind", "help", "label_names", "children")

    def __init__(self, name, kind, help_text, label_names):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.children: Dict[LabelKey, object] = {}


class MetricsRegistry:
    """Holds every metric family of one export."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- registration ------------------------------------------------------

    def _child(self, name, kind, factory, help_text, labels):
        fam = self._families.get(name)
        label_names = frozenset(labels)
        if fam is None:
            fam = _Family(name, kind, help_text, label_names)
            self._families[name] = fam
        else:
            if fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {fam.kind}, not a {kind}"
                )
            if fam.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} has labels "
                    f"{sorted(fam.label_names)}, got {sorted(label_names)}"
                )
        key = _label_key(labels)
        child = fam.children.get(key)
        if child is None:
            child = factory()
            fam.children[key] = child
        return child

    def counter(self, name: str, help: Optional[str] = None, **labels):
        return self._child(name, "counter", Counter, help, labels)

    def gauge(self, name: str, help: Optional[str] = None, **labels):
        return self._child(name, "gauge", Gauge, help, labels)

    def histogram(
        self,
        name: str,
        help: Optional[str] = None,
        bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
        **labels,
    ):
        return self._child(
            name, "histogram", lambda: Histogram(bounds), help, labels
        )

    # -- queries -----------------------------------------------------------

    def samples(self) -> Iterator[MetricSample]:
        for name in sorted(self._families):
            fam = self._families[name]
            for key in sorted(fam.children):
                yield MetricSample(
                    fam.name, fam.kind, fam.help, dict(key),
                    fam.children[key],
                )

    def value(self, name: str, **labels) -> float:
        """The value of one child (0 if it was never registered)."""
        fam = self._families.get(name)
        if fam is None:
            return 0.0
        child = fam.children.get(_label_key(labels))
        return child.value if child is not None else 0.0

    def total(self, name: str, **label_filter) -> float:
        """Sum of every child of ``name`` matching the label filter."""
        fam = self._families.get(name)
        if fam is None:
            return 0.0
        want = set(_label_key(label_filter))
        return sum(
            child.value
            for key, child in fam.children.items()
            if want <= set(key)
        )

    def __len__(self) -> int:
        return sum(len(f.children) for f in self._families.values())

    def as_dict(self) -> dict:
        """Plain-data snapshot (the JSON exporter's payload)."""
        metrics = []
        for s in self.samples():
            row = {"name": s.name, "kind": s.kind, "labels": s.labels}
            if s.help:
                row["help"] = s.help
            if s.kind == "histogram":
                h = s.instrument
                row.update(
                    count=h.count, sum=h.total, min=h.min, max=h.max,
                    mean=h.mean,
                    buckets=[
                        {"le": le if le != float("inf") else "+Inf",
                         "count": c}
                        for le, c in h.cumulative_buckets()
                    ],
                )
            else:
                row["value"] = s.instrument.value
            metrics.append(row)
        return {"schema_version": 1, "metrics": metrics}


# -- derivation ---------------------------------------------------------------

_LEVELS = ("l1", "l2", "llc", "victim", "bbf_stream")


def _unit_metrics(reg: MetricsRegistry, unit_stats) -> None:
    """Per-unit series from ``EngineResult.unit_stats``: every cache
    as ``spade_cache_*_total{level=,unit=}``, the BBF stream buffers
    and the STLBs under their own names."""
    for level, unit, c in unit_stats:
        if level == "bbf":
            reg.counter(
                "spade_bbf_stream_hits_total", unit=unit
            ).inc(c["hits"])
            reg.counter(
                "spade_bbf_stream_misses_total", unit=unit
            ).inc(c["misses"])
            reg.counter(
                "spade_bbf_writebacks_total", unit=unit
            ).inc(c["writebacks"])
        elif level == "stlb":
            reg.counter("spade_stlb_hits_total", unit=unit).inc(c["hits"])
            reg.counter("spade_stlb_misses_total", unit=unit).inc(c["misses"])
        else:
            for name, value in c.items():
                reg.counter(
                    f"spade_cache_{name}_total", level=level, unit=unit
                ).inc(value)


def _report_metrics(reg: MetricsRegistry, report) -> None:
    """The simulated facts of one ExecutionReport."""
    result = report.result
    stats = result.stats
    _unit_metrics(reg, result.unit_stats)
    reg.counter("spade_dram_lines_total", op="read").inc(stats.dram_reads)
    reg.counter("spade_dram_lines_total", op="write").inc(stats.dram_writes)
    for region, lines in sorted(stats.by_region.items()):
        reg.counter("spade_dram_region_lines_total", region=region).inc(lines)
    for level in _LEVELS:
        s = getattr(stats, level)
        reg.counter("spade_level_hits_total", level=level).inc(s.hits)
        reg.counter("spade_level_misses_total", level=level).inc(s.misses)
        reg.counter(
            "spade_level_writebacks_total", level=level
        ).inc(s.writebacks)
    reg.counter("spade_flushed_dirty_lines_total").inc(
        stats.flushed_dirty_lines
    )
    reg.counter(
        "spade_epochs_total", help="barrier epochs executed"
    ).inc(len(result.epoch_timings))
    wait = reg.histogram(
        "spade_epoch_barrier_wait_ns",
        help="per-PE simulated wait at each epoch barrier "
        "(epoch time minus the PE's own time)",
    )
    for timing in result.epoch_timings:
        for t in timing.pe_times_ns:
            wait.observe(timing.epoch_time_ns - t)
    reg.gauge("spade_run_time_ns", help="simulated kernel time").set(
        result.time_ns
    )
    reg.gauge(
        "spade_run_termination_ns",
        help="simulated SPADE->CPU transition time",
    ).set(result.termination_ns)
    schedule = report.schedule
    reg.gauge(
        "spade_schedule_epochs", help="barrier epochs scheduled"
    ).set(schedule.num_epochs)
    reg.gauge("spade_schedule_tiles", help="tiles assigned").set(
        schedule.num_tiles
    )
    reg.gauge(
        "spade_schedule_load_imbalance", help="max/mean per-PE nonzeros"
    ).set(schedule.load_imbalance())
    nnz = reg.histogram(
        "spade_schedule_pe_nnz", help="nonzeros assigned per PE"
    )
    for n in schedule.pe_nnz():
        nnz.observe(n)
    for pe in range(report.config.num_pes):
        _replay_batch(reg, pe)


def _replay_batch(reg: MetricsRegistry, pe) -> Histogram:
    return reg.histogram(
        "spade_replay_batch_accesses",
        help="accesses per dispatch run replayed by the array backend",
        pe=str(pe),
    )


def _event_metrics(reg: MetricsRegistry, events: Iterable[Mapping]) -> None:
    """The host-side facts a run ledger recorded."""
    counts = {"retry": 0, "degradation": 0, "checkpoint": 0}
    fused = 0
    gen_s: List[float] = []
    runs: List[Sequence[int]] = []
    for ev in events:
        kind = ev.get("e")
        if kind in counts:
            counts[kind] += 1
        elif kind == "epoch":
            fused += ev.get("fused_chunks", 0)
            runs.extend(ev.get("replay_runs", ()))
        elif kind == "span" and ev.get("cat") == "gen":
            gen_s.append(ev["dur_s"])
    reg.counter(
        "spade_run_retries",
        help="supervised run attempts retried after transient errors",
    ).inc(counts["retry"])
    reg.counter(
        "spade_backend_degradations",
        help="execution-backend fallbacks taken by the supervisor",
    ).inc(counts["degradation"])
    if counts["checkpoint"]:
        reg.counter(
            "spade_checkpoints_written",
            help="epoch checkpoints successfully written",
        ).inc(counts["checkpoint"])
    if fused:
        reg.counter(
            "spade_gen_fused_chunks",
            help="chunks whose trace was generated at epoch grain",
        ).inc(fused)
    if gen_s:
        hist = reg.histogram(
            "spade_gen_chunk_seconds",
            help="wall-clock per-PE epoch trace-generation time",
        )
        for seconds in gen_s:
            hist.observe(seconds)
    for pe, accesses in runs:
        _replay_batch(reg, pe).observe(accesses)


def run_metrics(
    report=None, events: Iterable[Mapping] = ()
) -> MetricsRegistry:
    """The metrics of one kernel run: the simulated facts of ``report``
    (an ExecutionReport) and the host-side facts of ``events`` (its run
    ledger's events)."""
    reg = MetricsRegistry()
    if report is not None:
        _report_metrics(reg, report)
    _event_metrics(reg, events)
    return reg


def _counters(reg: MetricsRegistry, rows) -> MetricsRegistry:
    for name, value, help_text in rows:
        reg.counter(name, help=help_text).inc(value)
    return reg


def sweep_metrics(report) -> MetricsRegistry:
    """Sweep progress series from a :class:`~repro.sweep.SweepReport`."""
    reg = _counters(MetricsRegistry(), (
        ("spade_sweep_jobs_completed", report.completed,
         "sweep jobs executed by a worker"),
        ("spade_sweep_jobs_cached", report.cached,
         "sweep jobs served from the result cache"),
        ("spade_sweep_jobs_failed", report.failed,
         "sweep jobs that raised in a worker"),
        ("spade_sweep_jobs_requeued", report.requeued,
         "sweep jobs requeued after their worker died"),
        ("spade_sweep_jobs_quarantined", report.quarantined,
         "poison sweep jobs quarantined after attempt exhaustion"),
        ("spade_sweep_workers_restarted", report.restarted,
         "sweep pool workers replaced after dying"),
    ))
    # A report covers finished map_grid calls: nothing is left queued.
    reg.gauge(
        "spade_sweep_queue_depth", help="sweep jobs waiting for a worker"
    ).set(0)
    return reg


def service_metrics(stats: Mapping[str, Any]) -> MetricsRegistry:
    """``GET /metrics``: the service series, read off the ``GET
    /v1/stats`` payload (:meth:`~repro.service.server.SimulationService.stats`
    plus the server's ``connections``)."""
    pool = stats["pool"]
    admission = stats["admission"]
    reg = _counters(MetricsRegistry(), (
        ("spade_service_connections", stats["connections"],
         "HTTP connections accepted"),
        ("spade_service_requests", stats["requests"],
         "simulation requests received"),
        ("spade_service_memo_hits", stats["memo_hits"],
         "requests answered from the result cache without queuing"),
        ("spade_service_coalesced", stats["coalescing"]["coalesced"],
         "requests attached to an already-in-flight execution"),
        ("spade_service_rejected",
         admission["rejected_quota"] + admission["rejected_overload"],
         "requests refused by admission control (429/503)"),
        ("spade_service_served", stats["served"],
         "requests answered successfully (any source)"),
        ("spade_service_executions", pool["executed"],
         "simulations executed by the service pool"),
        ("spade_service_requeued", pool["requeued"],
         "service jobs requeued after their worker died"),
        ("spade_service_quarantined", pool["quarantined"],
         "poison service jobs quarantined after attempt exhaustion"),
        ("spade_service_workers_restarted", pool["restarted"],
         "service pool workers replaced after dying"),
    ))
    reg.gauge(
        "spade_service_queue_depth", help="service jobs waiting for a worker"
    ).set(pool["queued"])
    return reg
