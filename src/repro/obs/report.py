"""Ledger aggregation: ``repro obs report``.

Folds one or many ledger files (run ledgers, merged sweep ledgers, or
whole directories of either) into a single rollup:

- **phase hotspots** — host seconds per engine phase (generation,
  merge, replay) summed over every epoch event, plus checkpoint and
  whole-run wall time, the epoch-grain generation chunk count, which
  walks (compiled kernels or Python twins) the runs used;
- **replay by level** — per cache level: streams walked, by which walk
  (native or python), events and measured time;
- **cache/sweep hit rates** — result-cache hits vs executed jobs;
- **retry/degradation timeline** — every supervisor transition with
  its cause, in recorded order.

The JSON form is the aggregate dict verbatim; the text form renders
the same numbers as aligned tables for terminals.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from repro.obs.ledger import iter_ledger_files, read_events
from repro.obs.schema import DISPATCH_LEVELS

_PHASES = ("gen", "merge", "replay")


def _level_bucket() -> Dict[str, Any]:
    return {
        "considered": 0,
        "chosen": {"native": 0, "python": 0},
        "events": 0,
        "measured_us": 0.0,
    }


def aggregate(paths) -> Dict[str, Any]:
    """Fold ledger files/directories into one rollup dict."""
    files = iter_ledger_files(paths)
    agg: Dict[str, Any] = {
        "files": [str(f) for f in files],
        "events": 0,
        "events_by_type": {},
        "runs": {"started": 0, "ok": 0, "failed": 0},
        "kernels": {},
        "phases": {p: {"seconds": 0.0, "epochs": 0} for p in _PHASES},
        "fused_chunks": 0,
        "checkpoints": {"count": 0, "seconds": 0.0},
        "run_wall_s": 0.0,
        "sim_time_ns": 0.0,
        "dispatch": {"total": 0, "by_level": {}},
        "sweep": {
            "jobs": 0, "completed": 0, "failed": 0, "cache_hits": 0,
            "requeued": 0, "quarantined": 0,
        },
        "service": {
            "requests": 0, "memo_hits": 0, "coalesced": 0,
            "admitted": 0, "rejected": 0, "served": 0, "failed": 0,
            "served_by_source": {},
        },
        "retries": 0,
        "degradations": 0,
        "timeline": [],
    }
    by_type = agg["events_by_type"]
    levels: Dict[str, Dict[str, Any]] = agg["dispatch"]["by_level"]
    for path in files:
        for ev in read_events(path):
            agg["events"] += 1
            etype = ev.get("e", "?")
            by_type[etype] = by_type.get(etype, 0) + 1
            if etype == "epoch":
                for p in _PHASES:
                    agg["phases"][p]["seconds"] += ev.get(f"{p}_s", 0.0)
                    agg["phases"][p]["epochs"] += 1
                agg["fused_chunks"] += int(ev.get("fused_chunks") or 0)
            elif etype == "checkpoint":
                agg["checkpoints"]["count"] += 1
                agg["checkpoints"]["seconds"] += ev.get("wall_s", 0.0)
            elif etype == "run_start":
                agg["runs"]["started"] += 1
            elif etype == "run_end":
                status = ev.get("status", "failed")
                agg["runs"]["ok" if status == "ok" else "failed"] += 1
                agg["run_wall_s"] += ev.get("wall_s", 0.0)
                agg["sim_time_ns"] += ev.get("time_ns") or 0.0
                impl = ev.get("kernels")
                if impl:
                    impls = agg["kernels"]
                    impls[impl] = impls.get(impl, 0) + 1
                if status != "ok":
                    agg["timeline"].append(_timeline_row(ev, path))
            elif etype == "dispatch":
                _fold_dispatch(agg, levels, ev)
            elif etype == "sweep_job":
                status = ev.get("status")
                if status == "started":
                    agg["sweep"]["jobs"] += 1
                elif status == "completed":
                    agg["sweep"]["completed"] += 1
                elif status == "failed":
                    agg["sweep"]["failed"] += 1
                    agg["timeline"].append(_timeline_row(ev, path))
                elif status == "requeued":
                    agg["sweep"]["requeued"] += 1
                    agg["timeline"].append(_timeline_row(ev, path))
                elif status == "quarantined":
                    agg["sweep"]["quarantined"] += 1
                    agg["timeline"].append(_timeline_row(ev, path))
            elif etype == "cache_hit":
                agg["sweep"]["cache_hits"] += 1
            elif etype == "service":
                svc = agg["service"]
                status = ev.get("status")
                if status == "request_received":
                    svc["requests"] += 1
                elif status == "coalesced":
                    svc["coalesced"] += 1
                elif status == "admitted":
                    svc["admitted"] += 1
                elif status == "rejected":
                    svc["rejected"] += 1
                    agg["timeline"].append(_timeline_row(ev, path))
                elif status == "served":
                    svc["served"] += 1
                    source = ev.get("source", "?")
                    if source == "memo":
                        svc["memo_hits"] += 1
                    by_source = svc["served_by_source"]
                    by_source[source] = by_source.get(source, 0) + 1
                elif status == "failed":
                    svc["failed"] += 1
                    agg["timeline"].append(_timeline_row(ev, path))
            elif etype == "retry":
                agg["retries"] += 1
                agg["timeline"].append(_timeline_row(ev, path))
            elif etype == "degradation":
                agg["degradations"] += 1
                agg["timeline"].append(_timeline_row(ev, path))
    _finalise(agg)
    return agg


def _timeline_row(ev: Dict[str, Any], path: Path) -> Dict[str, Any]:
    etype = ev["e"]
    if etype == "retry":
        desc = (
            f"retry attempt {ev.get('attempt')} on "
            f"{ev.get('execution')}/{ev.get('replay')}: "
            f"{ev.get('cause')}"
        )
    elif etype == "degradation":
        desc = (
            f"degraded {ev.get('from_execution')}/{ev.get('from_replay')}"
            f" -> {ev.get('to_execution')}/{ev.get('to_replay')}: "
            f"{ev.get('cause')}"
        )
    elif etype == "sweep_job":
        status = ev.get("status", "failed")
        desc = f"job {ev.get('index')} {status}: {ev.get('error')}"
        if ev.get("attempt") is not None:
            desc += f" (attempt {ev.get('attempt')})"
    elif etype == "service":
        status = ev.get("status", "failed")
        key = (ev.get("key") or "")[:16]
        desc = (
            f"request {key or '?'} {status} "
            f"({ev.get('code', '?')}): {ev.get('reason')}"
        )
    else:  # run_end failure
        desc = f"run failed: {ev.get('error')}"
    return {
        "t": ev.get("t"),
        "run": ev.get("run"),
        "event": etype,
        "description": desc,
        "file": path.name,
    }


def _fold_dispatch(
    agg: Dict[str, Any],
    levels: Dict[str, Dict[str, Any]],
    ev: Dict[str, Any],
) -> None:
    agg["dispatch"]["total"] += 1
    bucket = levels.setdefault(ev.get("level", "?"), _level_bucket())
    bucket["considered"] += 1
    chosen = ev.get("chosen", "?")
    if chosen in bucket["chosen"]:
        bucket["chosen"][chosen] += 1
    bucket["events"] += ev.get("events", 0)
    bucket["measured_us"] += ev.get("measured_us", 0.0)


def _finalise(agg: Dict[str, Any]) -> None:
    sweep = agg["sweep"]
    total_jobs = sweep["jobs"] + sweep["cache_hits"]
    sweep["hit_rate"] = (
        sweep["cache_hits"] / total_jobs if total_jobs else 0.0
    )
    svc = agg["service"]
    svc["memo_rate"] = (
        svc["memo_hits"] / svc["served"] if svc["served"] else 0.0
    )


# -- rendering ---------------------------------------------------------------


def _table(headers, rows) -> str:
    from repro.bench.harness import format_table

    return format_table(headers, rows)


def format_report(agg: Dict[str, Any], top: int = 10) -> str:
    """The aggregate as aligned terminal text."""
    lines: List[str] = []
    runs = agg["runs"]
    lines.append(
        f"ledger files : {len(agg['files'])}  "
        f"events {agg['events']}  "
        f"runs {runs['started']} started / {runs['ok']} ok / "
        f"{runs['failed']} failed"
    )
    if agg["kernels"]:
        impls = ", ".join(
            f"{k}={v}" for k, v in sorted(agg["kernels"].items())
        )
        lines.append(f"kernels      : {impls} runs")
    by_type = ", ".join(
        f"{k}={v}" for k, v in sorted(agg["events_by_type"].items())
    )
    lines.append(f"event types  : {by_type or '(none)'}")
    lines.append("")

    lines.append("phase hotspots (host seconds over all epochs)")
    phase_rows = sorted(
        (
            (p, d["seconds"], d["epochs"])
            for p, d in agg["phases"].items()
        ),
        key=lambda r: -r[1],
    )
    rows = [
        (p, f"{s:.4f}", n) for p, s, n in phase_rows
    ] + [
        (
            "checkpoint",
            f"{agg['checkpoints']['seconds']:.4f}",
            agg["checkpoints"]["count"],
        )
    ]
    lines.append(_table(("phase", "seconds", "samples"), rows))
    if agg["fused_chunks"]:
        lines.append(
            f"epoch-grain generation: {agg['fused_chunks']} chunks"
        )
    lines.append("")

    disp = agg["dispatch"]
    lines.append(f"replay by level: {disp['total']} level streams walked")
    if disp["by_level"]:
        rows = []
        order = {level: k for k, level in enumerate(DISPATCH_LEVELS)}
        for level in sorted(
            disp["by_level"], key=lambda lv: (order.get(lv, len(order)), lv)
        ):
            b = disp["by_level"][level]
            c = b["chosen"]
            rows.append((
                level, b["considered"], c["native"], c["python"],
                b["events"], f"{b['measured_us'] / 1e3:.2f}",
            ))
        lines.append(_table(
            ("level", "streams", "native", "python", "events", "total ms"),
            rows,
        ))
    lines.append("")

    sweep = agg["sweep"]
    if sweep["jobs"] or sweep["cache_hits"]:
        line = (
            f"sweep: {sweep['jobs']} executed "
            f"({sweep['completed']} completed, {sweep['failed']} failed), "
            f"{sweep['cache_hits']} cache hits "
            f"(hit rate {sweep['hit_rate']:.1%})"
        )
        if sweep.get("requeued"):
            line += f", {sweep['requeued']} requeued"
        if sweep.get("quarantined"):
            line += f", {sweep['quarantined']} quarantined"
        lines.append(line)
        lines.append("")

    svc = agg["service"]
    if svc["requests"]:
        by_source = ", ".join(
            f"{k}={v}"
            for k, v in sorted(svc["served_by_source"].items())
        )
        lines.append(
            f"service: {svc['requests']} requests, {svc['served']} "
            f"served (memo rate {svc['memo_rate']:.1%}; {by_source}), "
            f"{svc['coalesced']} coalesced, {svc['rejected']} rejected, "
            f"{svc['failed']} failed"
        )
        lines.append("")

    lines.append(
        f"resilience: {agg['retries']} retries, "
        f"{agg['degradations']} degradations"
    )
    timeline = agg["timeline"]
    if timeline:
        lines.append("timeline (recorded order)")
        rows = [
            (
                f"{row['t']:.3f}" if row["t"] is not None else "?",
                row["run"], row["event"], row["description"],
            )
            for row in timeline[:top]
        ]
        lines.append(_table(("t (s)", "run", "event", "what"), rows))
        if len(timeline) > top:
            lines.append(f"... {len(timeline) - top} more")
    return "\n".join(lines)


def validate_ledgers(
    paths, require_dispatch: bool = False
) -> Dict[str, Any]:
    """Validate every event in ``paths`` against the schema; returns
    counts.  Raises :class:`~repro.obs.schema.LedgerSchemaError` on the
    first violation (with file and line context) and :class:`ValueError`
    when ``require_dispatch`` finds no dispatch events."""
    from repro.obs.schema import LedgerSchemaError, validate_event

    files = iter_ledger_files(paths)
    if not files:
        raise ValueError(
            f"no ledger files found under {[str(p) for p in paths]}"
        )
    counts: Dict[str, int] = {}
    total = 0
    for path in files:
        for lineno, ev in enumerate(read_events(path), start=1):
            try:
                validate_event(ev)
            except LedgerSchemaError as exc:
                raise LedgerSchemaError(
                    f"{path}:{lineno}: {exc}"
                ) from exc
            counts[ev["e"]] = counts.get(ev["e"], 0) + 1
            total += 1
    if require_dispatch and not counts.get("dispatch"):
        raise ValueError(
            f"no dispatch events found across {len(files)} ledger "
            f"file(s) ({total} events) — no level stream was replayed "
            f"by the array backend"
        )
    return {"files": len(files), "events": total, "by_type": counts}
