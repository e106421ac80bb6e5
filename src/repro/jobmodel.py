"""The stable Job/Result boundary shared by every execution substrate.

A *job* is one hashable unit of simulation work — a (driver, point)
pair bound to an environment fingerprint and a schema version — and a
*result* is its answer plus the provenance of how it was obtained.
Three consumers speak this vocabulary:

- the **sweep runner** (:mod:`repro.sweep.runner`) runs grids of
  :class:`JobSpec` on the supervised worker pool and merges by index;
- the **result cache** (:mod:`repro.sweep.cache`) stores each
  answer under :attr:`JobSpec.key`, so every process sharing a cache
  directory reuses it;
- the **simulation service** (:mod:`repro.service`) resolves client
  requests to the same keys, so a served answer, a sweep cell, and a
  ``repro run`` invocation all address one content-addressed result.

Each grid point becomes a :class:`JobSpec` whose ``key`` is a content
hash over everything that determines the cell's result:

- the **schema version** (bumped when cell semantics change, so a code
  change can never resurface stale cached results),
- the **driver** name (``fig09``, ``table5``, ``run``, ...),
- the **config hash** — :func:`config_fingerprint` of the key
  projection of the resolved
  :class:`~repro.bench.harness.BenchEnvironment` (which determines
  every system config a driver builds),
- the **workload hash** — the canonical-JSON digest of the grid point.

This module also owns the key policy (DESIGN.md section 9.A): a
dataclass field states whether it enters a key in its own declaration,
through the :data:`NOT_KEYED` metadata, and :func:`key_projection`
derives every key dict from those markers.

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
from typing import Any, Dict, List, Mapping, Sequence, Tuple

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


KEY_SCOPE = "key"
"""Field-metadata name of a field's key membership (unmarked: keyed)."""

NOT_KEYED = {KEY_SCOPE: False}
"""A field that says *how* a result is computed, never what it is: it
enters no key, so changing it invalidates no result or checkpoint."""


def key_projection(obj: Any) -> Dict[str, Any]:
    """What of a dataclass enters a key, read off its fields' markers:
    the nested ``asdict`` form minus every :data:`NOT_KEYED` field (and
    its subtree)."""
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(obj):
        if f.metadata.get(KEY_SCOPE) is False:
            continue
        value = getattr(obj, f.name)
        out[f.name] = key_projection(value) if is_dataclass(value) else value
    return out


def config_fingerprint(config: Any) -> str:
    """Content hash of a :class:`~repro.config.SpadeConfig` (or any
    dataclass, or an already flattened dict): sha256 of its
    canonical-JSON flattening.  Equal configs hash equal regardless of
    how they were constructed."""
    if is_dataclass(config):
        flat = dataclasses.asdict(config)
    elif isinstance(config, dict):
        flat = config
    else:
        raise TypeError(f"cannot fingerprint {type(config).__name__}")
    blob = json.dumps(flat, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def environment_fingerprint(env: Any) -> str:
    """Content hash of a job's environment.

    ``None`` (environment-free drivers like ``sec7g`` and the service's
    ``run`` cells) hashes to a fixed sentinel; a dataclass hashes its
    :func:`key_projection`, so its orchestration knobs never re-key a
    cached result.
    """
    if env is None:
        return value_fingerprint("no-environment")
    if is_dataclass(env) and not isinstance(env, type):
        return config_fingerprint(key_projection(env))
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
        return value_fingerprint(
            {
                "schema_version": self.schema_version,
                "driver": self.driver,
                "config": self.config_hash,
                "workload": self.workload_hash,
            }
        )

    @property
    def seed(self) -> int:
        """Deterministic per-job seed derived from the job key."""
        return int(self.key[:16], 16)


RESULT_SOURCES = ("executed", "coalesced")
"""Where a :class:`JobResult` came from: a worker ran the cell, or an
identical in-flight execution fanned its answer out."""


@dataclass(frozen=True)
class JobResult:
    """One job's answer plus the provenance of how it was obtained.

    The *value* is exactly what the cell returned.  The envelope
    records how the answer was produced, which the service reports to
    clients and the exactly-once audits reason about.
    """

    key: str
    value: Any
    source: str = "executed"
    attempt: int = 1
    wall_s: float = 0.0
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
