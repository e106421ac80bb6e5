"""The stable Job/Result boundary shared by every execution substrate.

A *job* is one hashable unit of simulation work — a (driver, point)
pair bound to an environment fingerprint and a schema version — and a
*result* is its answer plus the provenance of how it was obtained.
Three consumers speak this vocabulary:

- the **sweep runner** (:mod:`repro.sweep.runner`) runs grids of
  :class:`JobSpec` on the supervised worker pool and merges by index;
- the **sharded runner** (``repro sweep --shard i/N``) exchanges
  results between hosts keyed by :attr:`JobSpec.key`;
- the **simulation service** (:mod:`repro.service`) resolves client
  requests to the same keys, so a served answer, a sweep cell, and a
  ``repro run`` invocation all address one content-addressed result.

Each grid point becomes a :class:`JobSpec` whose ``key`` is a content
hash over everything that determines the cell's result:

- the **schema version** (bumped when cell semantics change, so a code
  change can never resurface stale cached results),
- the **driver** name (``fig09``, ``table5``, ``run``, ...),
- the **config hash** — the PR 2 provenance fingerprint of the resolved
  :class:`~repro.bench.harness.BenchEnvironment` (which determines
  every system config a driver builds),
- the **workload hash** — the canonical-JSON digest of the grid point.

Equal jobs hash equal regardless of process, host, or grid position, so
the key doubles as the result-cache address; distinct jobs collide only
if sha256 collides.  Each job also derives a deterministic per-job seed
from its key so any seed-sensitive code inside a cell behaves
identically no matter which worker runs the job or in what order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, is_dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

SWEEP_SCHEMA_VERSION = 1
"""Bump when cell-function semantics change: invalidates every cached
sweep/service result at once (cache keys embed this version)."""

JOB_SCHEMA_VERSION = SWEEP_SCHEMA_VERSION
"""Alias: the service speaks of jobs, the sweep of sweeps; one version."""


def canonical_blob(value: Any) -> bytes:
    """Deterministic byte serialisation of a (nested) grid value.

    Canonical JSON with sorted keys; tuples and lists are equivalent,
    anything non-JSON falls back to ``repr`` (stable for the enums,
    dataclasses, and numbers that appear in grid points).
    """
    return json.dumps(
        value, sort_keys=True, default=repr, separators=(",", ":")
    ).encode()


def value_fingerprint(value: Any) -> str:
    """sha256 hex digest of :func:`canonical_blob`."""
    return hashlib.sha256(canonical_blob(value)).hexdigest()


_EXCLUDED_ENV_KEYS = (
    "jobs", "cache_dir", "timeout_s", "max_retries", "trace_cache_dir",
    "max_attempts", "keep_going", "lease_dir",
)
"""Environment fields that orchestrate *how* a job runs but cannot
change what a cell computes (all execution paths are bit-identical, per
the PR 3/4 parity suites, and trace-cache replay is bit-identical to
live generation per the PR 8 trace-store suites) — excluded from the
fingerprint so changing worker count, supervision policy or trace-cache
location never invalidates cached results."""


def environment_fingerprint(env: Any) -> str:
    """Content hash of a job's environment.

    ``None`` (environment-free drivers like ``sec7g`` and the service's
    ``run`` cells) hashes to a fixed sentinel; dataclasses reuse the
    PR 2 provenance fingerprint (modulo :data:`_EXCLUDED_ENV_KEYS`) so
    the result cache and the BENCH manifest agree on what "same config"
    means.
    """
    if env is None:
        return value_fingerprint("no-environment")
    if is_dataclass(env) and not isinstance(env, type):
        from repro.telemetry.provenance import config_fingerprint

        fields = dataclasses.asdict(env)
        for key in _EXCLUDED_ENV_KEYS:
            fields.pop(key, None)
        return config_fingerprint(fields)
    return value_fingerprint(env)


def expand_grid(axes: Mapping[str, Sequence[Any]]) -> List[Tuple]:
    """Cartesian product of named axes as a list of point tuples.

    Expansion order is a pure function of the spec: axes vary in
    *insertion order* with the last axis fastest (odometer order), which
    is exactly the nesting order of the serial ``for`` loops the sweep
    replaces.  The property suite pins this determinism.
    """
    points: List[Tuple] = [()]
    for name in axes:
        pool = list(axes[name])
        points = [p + (v,) for p in points for v in pool]
    return points


@dataclass(frozen=True)
class JobSpec:
    """One hashable unit of work: a (driver, point) pair bound to an
    environment fingerprint and the job schema version."""

    driver: str
    index: int
    point: Tuple
    config_hash: str
    schema_version: int = SWEEP_SCHEMA_VERSION

    @property
    def workload_hash(self) -> str:
        """Content hash of the grid point alone."""
        return value_fingerprint(list(self.point))

    @property
    def key(self) -> str:
        """Content address of this job's result.

        Deliberately excludes ``index``: the same (driver, config,
        point) job has the same result wherever it sits in the grid, so
        reshaped or filtered grids still hit the cache.
        """
        blob = canonical_blob(
            {
                "schema_version": self.schema_version,
                "driver": self.driver,
                "config": self.config_hash,
                "workload": self.workload_hash,
            }
        )
        return hashlib.sha256(blob).hexdigest()

    @property
    def seed(self) -> int:
        """Deterministic per-job seed derived from the job key."""
        return int(self.key[:16], 16)


RESULT_SOURCES = ("executed", "cached", "coalesced")
"""Where a :class:`JobResult` came from: a worker ran the cell, the
content-addressed cache answered, or an identical in-flight execution
fanned its answer out."""


@dataclass(frozen=True)
class JobResult:
    """One job's answer plus the provenance of how it was obtained.

    The *value* is exactly what the cell returned (or the cached bytes
    of a previous identical execution — the cache stores pickled cell
    output, so a cached value *is* the executed value).  The envelope
    records how the answer was produced, which the service reports to
    clients and the exactly-once audits reason about.
    """

    key: str
    value: Any
    source: str = "executed"
    attempt: int = 1
    wall_s: float = 0.0
    worker_pid: Optional[int] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.source not in RESULT_SOURCES:
            raise ValueError(
                f"JobResult source must be one of {RESULT_SOURCES}, "
                f"got {self.source!r}"
            )

    def with_source(self, source: str) -> "JobResult":
        """The same answer re-labelled (e.g. a coalesced waiter's view
        of the leader's executed result)."""
        return dataclasses.replace(self, source=source)

    def to_wire(self) -> Dict[str, Any]:
        """JSON-safe envelope (the service's response body core)."""
        wire: Dict[str, Any] = {
            "key": self.key,
            "source": self.source,
            "attempt": self.attempt,
            "wall_s": self.wall_s,
        }
        if self.extra:
            wire.update(self.extra)
        return wire


def build_jobs(
    driver: str, env: Any, points: Sequence[Tuple]
) -> List[JobSpec]:
    """Materialise the :class:`JobSpec` list for one grid, in grid
    order (the order results are merged back in)."""
    config_hash = environment_fingerprint(env)
    return [
        JobSpec(
            driver=driver,
            index=index,
            point=tuple(point),
            config_hash=config_hash,
        )
        for index, point in enumerate(points)
    ]
