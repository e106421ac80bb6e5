"""In-memory spans around the simulator's layer entry points.

The traced run installs :class:`Recorder` wrappers on the public
functions each layer exposes; the timed runs never install them, so the
code they time is the code users run.  A span is
``[layer, start, end, parent, events]``.  A layer's *self* time is its
spans' durations minus the part their child spans cover.

Wrappers installed before a ``fork`` keep recording in the child (the
service's pool workers).  A child starts from an empty span list and
appends its spans to ``<dump_dir>/spans-<pid>.jsonl`` whenever a kernel
call (a root span) ends: pool workers leave through ``os._exit`` and
would lose whatever is still in memory.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

# (layer, module, class or None for a module-level name, attribute).
# Module-level names are patched in the module that calls them: the
# engine imports the epoch generators and merge kernels by name.
TARGETS = (
    ("kernel", "repro.core.accelerator", "SpadeSystem", "spmm"),
    ("kernel", "repro.core.accelerator", "SpadeSystem", "sddmm"),
    ("sparse.tile", "repro.core.accelerator", None, "tile_matrix"),
    ("core.cpe.schedule", "repro.core.cpe", "ControlProcessor",
     "build_schedule"),
    ("engine", "repro.core.engine", "Engine", "run_spmm"),
    ("engine", "repro.core.engine", "Engine", "run_sddmm"),
    ("core.vectorized.gen", "repro.core.engine", None,
     "generate_spmm_epoch"),
    ("core.vectorized.gen", "repro.core.engine", None,
     "generate_sddmm_epoch"),
    ("kernels.merge", "repro.core.engine", None, "spmm_chunk_update"),
    ("kernels.merge", "repro.core.engine", None, "sddmm_chunk_vals"),
    ("memory.replay", "repro.memory.hierarchy", "MemorySystem",
     "replay_trace"),
    ("sweep.cache_get", "repro.sweep.cache", "ResultCache", "get"),
)

LAYERS = ("sparse.tile", "core.cpe.schedule", "core.vectorized.gen",
          "kernels.merge", "memory.replay")
"""Layers whose self time is attributed.  The rest of a kernel call
(the self time of the ``kernel`` and ``engine`` spans) is the residual."""


class Recorder:
    """Records spans for the wrapped layers of one process tree."""

    def __init__(self, dump_dir: Optional[Path] = None) -> None:
        self.dump_dir = dump_dir
        self.spans: List[list] = []
        self.facts: List[dict] = []
        self._local = threading.local()
        self._origin = self._pid = os.getpid()
        self._saved: list = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists.  A target a later change
        removed is skipped: its layer reports no work instead of
        stopping the benchmark."""
        for layer, module_name, owner_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = (
                owner.__dict__.get(attr) if owner_name
                else getattr(module, attr, None)
            )
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, layer: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            span = [layer, 0.0, 0.0, stack[-1] if stack else None, 0]
            stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            rec._note(layer, span, args, out)
            if not stack and layer == "kernel" and rec._pid != rec._origin:
                rec.dump()
            return out

        return wrapper

    def _stack(self) -> List[int]:
        if os.getpid() != self._pid:
            # First call in a forked child: the parent's spans are not
            # ours to report.
            self._pid = os.getpid()
            self.spans, self.facts = [], []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _note(self, layer: str, span: list, args, out) -> None:
        if layer == "memory.replay":
            span[4] = int(args[2].shape[0])  # replay_trace(self, pe, lines, ...)
        elif layer == "engine":
            pes = args[0].pes
            self.facts.append(simulated_facts(
                out,
                sum(pe.vrf.tag_hits for pe in pes),
                sum(pe.vrf.tag_misses for pe in pes),
            ))

    def dump(self) -> None:
        """Append this process's spans and facts to the dump directory."""
        if self.dump_dir is None or not (self.spans or self.facts):
            return
        path = Path(self.dump_dir) / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.spans,
                                 "facts": self.facts}) + "\n")
        self.spans, self.facts = [], []


def load_dumps(dump_dir: Path) -> List[tuple]:
    """Every ``(spans, facts)`` batch the processes appended."""
    batches = []
    for path in sorted(Path(dump_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    data = json.loads(line)
                    batches.append((data["spans"], data["facts"]))
    return batches


def simulated_facts(result, vrf_hits: int, vrf_misses: int) -> dict:
    """The simulated statistics of one engine run (exact counts)."""
    stats = result.stats
    return {
        "time_ns": float(result.time_ns),
        "l1": [stats.l1.hits, stats.l1.misses],
        "l2": [stats.l2.hits, stats.l2.misses],
        "llc": [stats.llc.hits, stats.llc.misses],
        "dram": int(stats.dram_accesses),
        "vrf": [int(vrf_hits), int(vrf_misses)],
    }


def self_times(batches) -> Dict[str, dict]:
    """Per span name: total self seconds, call count and replayed
    events, over span batches from any number of processes."""
    out: Dict[str, dict] = {}
    for spans, _ in batches:
        child_s = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                child_s[parent] += end - start
        for i, (name, start, end, _, events) in enumerate(spans):
            row = out.setdefault(
                name, {"self_s": 0.0, "wall_s": 0.0, "calls": 0, "events": 0}
            )
            row["self_s"] += (end - start) - child_s[i]
            row["wall_s"] += end - start
            row["calls"] += 1
            row["events"] += events
    return out


def layer_metrics(batches) -> Dict[str, float]:
    """Engine-layer metrics per kernel call, and the residual share."""
    times = self_times(batches)
    empty = {"self_s": 0.0, "wall_s": 0.0, "calls": 0, "events": 0}
    row = {name: times.get(name, empty) for name in LAYERS + ("kernel",)}
    calls = max(1, row["kernel"]["calls"])
    kernel_wall = row["kernel"]["wall_s"]
    replay = row["memory.replay"]
    attributed = sum(row[name]["self_s"] for name in LAYERS)
    return {
        "sparse.tile_s": row["sparse.tile"]["self_s"] / calls,
        "core.cpe.schedule_s": row["core.cpe.schedule"]["self_s"] / calls,
        "core.vectorized.gen_s": row["core.vectorized.gen"]["self_s"] / calls,
        "core.vectorized.gen_calls": row["core.vectorized.gen"]["calls"] / calls,
        "kernels.merge_s": row["kernels.merge"]["self_s"] / calls,
        "kernels.merge_calls": row["kernels.merge"]["calls"] / calls,
        "memory.replay_s": replay["self_s"] / calls,
        "memory.replay_calls": replay["calls"] / calls,
        "memory.replay_events": replay["events"] / calls,
        "memory.replay_ns_per_event": (
            replay["self_s"] * 1e9 / replay["events"]
            if replay["events"] else 0.0
        ),
        "engine.residual_frac": (
            1.0 - attributed / kernel_wall if kernel_wall > 0 else 0.0
        ),
        "kernel_wall_s": kernel_wall / calls,
        "kernel_calls": row["kernel"]["calls"],
    }


def sim_metrics(facts: List[dict]) -> Dict[str, float]:
    """Simulated statistics over the traced kernel calls.  They repeat
    exactly; a simulator-speed change must leave them identical."""
    def rate(level: str) -> float:
        hits = sum(f[level][0] for f in facts)
        total = hits + sum(f[level][1] for f in facts)
        return hits / total if total else 0.0

    calls = max(1, len(facts))
    return {
        "sim.time_ns": sum(f["time_ns"] for f in facts) / calls,
        "sim.l1_hit_rate": rate("l1"),
        "sim.l2_hit_rate": rate("l2"),
        "sim.llc_hit_rate": rate("llc"),
        "sim.dram_accesses": sum(f["dram"] for f in facts) / calls,
        "sim.vrf_hit_rate": rate("vrf"),
    }


def ledger_summary(paths) -> dict:
    """What the run ledger recorded: the replay dispatch audit (per
    level seconds, backend mix, mispredictions), the per-epoch phase
    split and the sweep-job execution times."""
    from repro.obs.ledger import iter_ledger_files, read_events

    level_s = {"l1": 0.0, "l2": 0.0, "llc": 0.0}
    phases = {"gen_s": 0.0, "merge_s": 0.0, "replay_s": 0.0}
    dispatch = arrays = comparable = mispredicted = 0
    cell_exec_s: List[float] = []
    for path in iter_ledger_files(paths):
        for ev in read_events(path):
            kind = ev.get("e")
            if kind == "dispatch":
                dispatch += 1
                chosen = ev.get("chosen")
                measured = ev.get("measured_us", 0.0)
                arrays += chosen == "array"
                # "batched" times the fused L1->DRAM cascade, which has
                # no per-level split.
                if chosen != "batched" and ev.get("level") in level_s:
                    level_s[ev["level"]] += measured / 1e6
                # As in `repro obs report`: mispredicted when the chosen
                # path took longer than the model's estimate for the
                # other one.
                alt = ev.get(
                    "predicted_py_us" if chosen == "array"
                    else "predicted_array_us"
                )
                if alt is not None:
                    comparable += 1
                    mispredicted += measured > alt
            elif kind == "epoch":
                for name in phases:
                    phases[name] += ev.get(name, 0.0)
            elif kind == "sweep_job" and ev.get("status") == "completed":
                cell_exec_s.append(ev.get("wall_s", 0.0))
    return {
        "dispatch_events": dispatch,
        "array_frac": arrays / dispatch if dispatch else 0.0,
        "mispredict_frac": mispredicted / comparable if comparable else 0.0,
        "level_s": level_s,
        "epoch_phases_s": phases,
        "cell_exec_s": cell_exec_s,
    }


def replay_split(ledger: dict, replay_s: float, calls: int) -> Dict[str, float]:
    """Per-layer dispatch metrics, per kernel call: the per-level replay
    seconds the dispatch events carry, and ``memory.replay_unsplit_frac``,
    the share of replay time that no per-level dispatch event covers."""
    calls = max(1, calls)
    levels = {
        f"memory.replay.{level}_s": seconds / calls
        for level, seconds in ledger["level_s"].items()
    }
    split_s = sum(levels.values())
    return {
        **levels,
        "memory.dispatch.array_frac": ledger["array_frac"],
        "memory.dispatch.mispredict_frac": ledger["mispredict_frac"],
        "memory.replay_unsplit_frac": (
            max(0.0, 1.0 - split_s / replay_s) if replay_s > 0 else 1.0
        ),
    }
