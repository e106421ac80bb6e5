"""The ``run`` cell: one simulation request as a pure, cacheable job.

This is the shared vocabulary between ``repro run`` (CLI), ``repro
submit`` (service client), and the service itself: a *request* (a JSON
object or CLI flags) normalises to a *point* tuple, the point binds to
a :class:`~repro.jobmodel.JobSpec` with ``driver="run"`` and a ``None``
environment, and the cell computes a plain summary dict.  Because all
three paths share the same driver name, environment fingerprint, and
point shape, they share **one content-addressed key space**: a result
cached by ``repro run --cache-dir`` is a service memo hit, and a served
answer replayed through :func:`format_run_summary` is byte-identical to
the CLI's stdout (pinned by ``tests/test_service_parity.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from repro.config import (
    EXECUTION_MODES,
    REPLAY_MODES,
    ResilienceConfig,
    scaled_config,
)
from repro.errors import WorkloadError
from repro.jobmodel import JobSpec, build_jobs
from repro.resilience import RunSupervisor
from repro.sparse.suite import SUITE

RUN_DRIVER = "run"

RUN_POINT_FIELDS = (
    "matrix", "scale", "kernel", "k", "pes", "cache_shrink", "seed",
    "replay", "execution",
)
"""Point tuple order — must match the CLI ``run`` sweep path (the tuple
*is* the workload hash input, so order changes would re-key the cache)."""

RUN_DEFAULTS: Dict[str, Any] = {
    "scale": "small",
    "kernel": "spmm",
    "k": 32,
    "pes": 8,
    "cache_shrink": 32.0,
    "seed": 0,
    "replay": None,
    "execution": None,
}

_SCALES = ("tiny", "small", "default", "large")
_KERNELS = ("spmm", "sddmm")

MAX_REQUEST_PES = 1792
"""SPADE8, the largest system the paper simulates: a request may not
make a worker build more PEs than that."""

MAX_REQUEST_K = 128
"""The largest K the paper evaluates and any driver uses: the dense
operands are ``rows x K`` floats, so K bounds a worker's memory."""


def request_point(body: Mapping[str, Any]) -> Tuple:
    """Normalise a service request body to a ``run`` point tuple.

    Raises :class:`~repro.errors.WorkloadError` on anything malformed —
    the service maps that to HTTP 400.  Matrices are restricted to
    Table 2 suite short names: a served system must not let clients
    name arbitrary filesystem paths.
    """
    if not isinstance(body, Mapping):
        raise WorkloadError("request body must be a JSON object")
    unknown = set(body) - set(RUN_POINT_FIELDS) - {"tenant", "priority"}
    if unknown:
        raise WorkloadError(
            f"unknown request fields {sorted(unknown)}; expected "
            f"{list(RUN_POINT_FIELDS)} (+ tenant, priority)"
        )
    matrix = body.get("matrix")
    suite_names = tuple(bench.name for bench in SUITE)
    if not isinstance(matrix, str) or matrix not in suite_names:
        raise WorkloadError(
            f"matrix must be one of the suite names "
            f"{', '.join(suite_names)}; got {matrix!r}"
        )
    merged = dict(RUN_DEFAULTS)
    for name in RUN_DEFAULTS:
        if name in body and body[name] is not None:
            merged[name] = body[name]
    if merged["scale"] not in _SCALES:
        raise WorkloadError(
            f"scale must be one of {_SCALES}, got {merged['scale']!r}"
        )
    if merged["kernel"] not in _KERNELS:
        raise WorkloadError(
            f"kernel must be one of {_KERNELS}, got {merged['kernel']!r}"
        )
    for name, limit in (("k", MAX_REQUEST_K), ("pes", MAX_REQUEST_PES)):
        value = merged[name]
        if not isinstance(value, int) or isinstance(value, bool) \
                or not 1 <= value <= limit:
            raise WorkloadError(
                f"{name} must be an integer in [1, {limit}], got {value!r}"
            )
    seed = merged["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise WorkloadError(
            f"seed must be a non-negative integer, got {seed!r}"
        )
    shrink = merged["cache_shrink"]
    if isinstance(shrink, bool) or not isinstance(shrink, (int, float)) \
            or not shrink >= 1:
        raise WorkloadError(
            f"cache_shrink must be a number >= 1, got {shrink!r}"
        )
    merged["cache_shrink"] = float(shrink)
    if merged["replay"] is not None \
            and merged["replay"] not in REPLAY_MODES:
        raise WorkloadError(
            f"replay must be one of {REPLAY_MODES} or null, "
            f"got {merged['replay']!r}"
        )
    if merged["execution"] is not None \
            and merged["execution"] not in EXECUTION_MODES:
        raise WorkloadError(
            f"execution must be one of {tuple(EXECUTION_MODES)} or "
            f"null, got {merged['execution']!r}"
        )
    return (matrix,) + tuple(
        merged[name] for name in RUN_POINT_FIELDS[1:]
    )


def run_jobspec(point: Tuple) -> JobSpec:
    """The content-addressed job for one ``run`` point (``env=None`` —
    every determining parameter is in the point, exactly like the CLI
    ``run`` sweep path)."""
    return build_jobs(RUN_DRIVER, None, [point])[0]


def run_cell(env: Any, point: Tuple) -> dict:
    """One ``repro run`` invocation as a pure sweep/service cell.

    Returns the printed summary (plain dict, cheap to cache) rather
    than the full execution report.  Every parameter that determines
    the result is in the point, so ``env`` is None.
    """
    (
        matrix, scale, kernel, k, pes, cache_shrink, seed, replay,
        execution,
    ) = point
    from repro.cli import load_matrix

    a = load_matrix(matrix, scale)
    cfg = scaled_config(pes, cache_shrink=cache_shrink)
    if replay is not None:
        cfg = dataclasses.replace(cfg, replay=replay)
    if execution is not None:
        cfg = dataclasses.replace(cfg, execution=execution)
    supervisor = RunSupervisor(resilience=ResilienceConfig())
    rng = np.random.default_rng(seed)
    b = rng.random((a.num_cols, k), dtype=np.float32)
    if kernel == "spmm":
        report = supervisor.run_kernel(cfg, "spmm", a, b)
    else:
        b_r = rng.random((a.num_rows, k), dtype=np.float32)
        report = supervisor.run_kernel(cfg, "sddmm", a, b_r, b)
    return {
        "matrix": str(a),
        "system": cfg.name,
        "num_pes": cfg.num_pes,
        "time_ms": report.time_ms,
        "dram_accesses": report.dram_accesses,
        "bandwidth_utilization": report.bandwidth_utilization,
        "requests_per_cycle": report.requests_per_cycle,
        "load_imbalance": report.load_imbalance,
        "stats_summary": report.stats.summary(),
    }


def format_run_summary(summary: Mapping[str, Any], kernel: str,
                       k: int) -> str:
    """Render a ``run`` summary exactly as ``repro run`` prints it —
    the byte-identity contract between the CLI and a served answer."""
    return "\n".join([
        f"matrix              : {summary['matrix']}",
        f"kernel              : {kernel} (K={k})",
        f"system              : {summary['system']} "
        f"({summary['num_pes']} PEs)",
        f"simulated time      : {summary['time_ms']:.4f} ms",
        f"DRAM accesses       : {summary['dram_accesses']}",
        f"bandwidth utilization: "
        f"{summary['bandwidth_utilization']:.1%}",
        f"requests per cycle  : "
        f"{summary['requests_per_cycle']:.2f}",
        f"load imbalance      : {summary['load_imbalance']:.2f}",
        summary["stats_summary"],
    ])


_PLAIN_LEAVES = frozenset((float, int, str, bool, type(None)))


def to_plain(value: Any) -> Any:
    """Recursively fold numpy scalars/arrays to plain Python so a
    summary survives the JSON wire format losslessly (Python floats
    round-trip exactly through ``json``; numpy int64 does not dump at
    all).

    A memo hit's summary is already plain: exact ``dict``/``list`` and
    plain leaves take a fast path that gives what the general one
    would, without its attribute probes and ``Mapping`` check."""
    kind = type(value)
    if kind in _PLAIN_LEAVES:
        return value
    if kind is dict:
        return {str(k): to_plain(v) for k, v in value.items()}
    if kind is list:
        return [to_plain(v) for v in value]
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (str, bytes)):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)
    if tolist is not None and not isinstance(value, (str, bytes)):
        return tolist()
    if isinstance(value, Mapping):
        return {str(k): to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    return value
