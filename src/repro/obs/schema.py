"""Ledger event taxonomy and schema validation.

Every line of a run ledger is one JSON object with three envelope
fields — ``e`` (event type), ``t`` (monotonic seconds since the ledger
opened), ``run`` (correlation id) — plus the type's own payload.  The
taxonomy below is the contract ``repro obs report`` aggregates against
and the CI ``obs-smoke`` job validates against; extending it means
adding a spec here, not sprinkling ad-hoc dicts at emit sites.

Validation is dependency-free on purpose (no ``jsonschema`` in the
container): each event type carries a field table of ``(type, required)``
pairs checked by :func:`validate_event`.  :func:`as_json_schema`
renders the same tables as a draft-07-style JSON Schema document so
external tooling can consume the contract.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

LEDGER_SCHEMA_VERSION = 3
"""Bump when envelope fields or event payloads change meaning (v3
removed the epoch-trace store's probe events with the store)."""

_NUM = (int, float)
_STR = (str,)
_INT = (int,)
_OPT_NUM = (int, float, type(None))
_LIST = (list,)


class LedgerSchemaError(ValueError):
    """An event does not conform to the ledger taxonomy."""


# Field tables: name -> (accepted types, required).  The envelope
# (e / t / run) is checked for every event before its table applies;
# unknown extra fields are rejected so the taxonomy stays closed.
EVENT_TYPES: Dict[str, Dict[str, Tuple[tuple, bool]]] = {
    # One per supervised run (or per attempt's outer envelope).
    "run_start": {
        "kernel": (_STR, True),
        "execution": (_STR, True),
        "replay": (_STR, True),
        "config_fingerprint": (_STR, True),
        "pid": (_INT, True),
    },
    "run_end": {
        "status": (_STR, True),        # "ok" | "failed"
        "wall_s": (_NUM, True),
        "time_ns": (_OPT_NUM, False),  # simulated time, ok runs only
        "error": (_STR, False),
        # Which walks (VRF and cache) the process ran: "native" (the
        # compiled kernels) or "python" (their Python paths; no gcc, so
        # slower).  Absent when no walk ran.  Never part of a key.
        "kernels": (_STR, False),
    },
    # One per barrier epoch: host-side phase split + simulated facts
    # (the barrier: the epoch's time, its bandwidth bound, the critical
    # PE and the requests issued).  "fused_chunks" counts chunks
    # generated at epoch grain (0 when the scalar oracle ran);
    # "replay_runs" lists each dispatch run the array backend replayed
    # as [pe, accesses].
    "epoch": {
        "epoch": (_INT, True),
        "gen_s": (_NUM, True),
        "merge_s": (_NUM, True),
        "replay_s": (_NUM, True),
        "epoch_time_ns": (_NUM, True),
        "dram_lines": (_INT, True),
        "critical_pe": (_INT, True),
        "fused_chunks": (_INT, False),
        "bandwidth_time_ns": (_NUM, False),
        "total_requests": (_INT, False),
        "replay_runs": (_LIST, False),
    },
    # One timed host phase (RunLedger.span): kernel, schedule, epoch,
    # per-PE trace generation ("pe" set), flush.  start_s is on the
    # ledger's clock, like "t"; the other fields are the phase's
    # arguments.
    "span": {
        "name": (_STR, True),
        "cat": (_STR, True),
        "start_s": (_NUM, True),
        "dur_s": (_NUM, True),
        "pe": (_INT, False),
        "epoch": (_INT, False),
        "chunks": (_INT, False),
        "nnz": (_INT, False),
        "k": (_INT, False),
        "settings": (_STR, False),
    },
    "checkpoint": {
        "epoch": (_INT, True),
        "wall_s": (_NUM, True),
    },
    # Supervisor lifecycle: bounded retry and ladder transitions.
    "retry": {
        "attempt": (_INT, True),
        "execution": (_STR, True),
        "replay": (_STR, True),
        "cause": (_STR, True),
        "backoff_s": (_NUM, True),
    },
    "degradation": {
        "from_execution": (_STR, True),
        "from_replay": (_STR, True),
        "to_execution": (_STR, True),
        "to_replay": (_STR, True),
        "cause": (_STR, True),
    },
    # Sweep lifecycle: one started/finished pair per executed job
    # attempt (written by the worker into its shard), one cache_hit per
    # job served from the result cache (written by the parent).  The
    # parent additionally writes "requeued" when a worker died holding
    # the job and "quarantined" when its attempts are exhausted — the
    # crash-recovery ladder is fully reconstructible from the ledger,
    # and "every key has exactly one completed event" is the
    # exactly-once audit for one pool's work.
    "sweep_job": {
        "index": (_INT, True),
        "status": (_STR, True),        # see _JOB_STATUS
        "key": (_STR, True),
        "driver": (_STR, True),
        "wall_s": (_NUM, False),       # completed / failed only
        "error": (_STR, False),
        "pid": (_INT, False),
        "attempt": (_INT, False),      # 1-based attempt count
    },
    "cache_hit": {
        "index": (_INT, True),
        "key": (_STR, True),
        "driver": (_STR, True),
    },
    # Service request lifecycle (repro serve): one "request_received"
    # per HTTP simulation request, then exactly one of the admission
    # outcomes ("admitted" | "rejected"), "coalesced" when the request
    # attached to an in-flight execution instead of starting one, and a
    # terminal "served" | "failed" with the answer's source.  Together
    # with the pool's sweep_job events (driver="serve") the coalescing
    # claim is auditable: served responses per key may exceed one, but
    # sweep_job "completed" per key must be exactly one.
    "service": {
        "status": (_STR, True),        # see _SERVICE_STATUS
        "key": (_STR, False),          # absent on malformed requests
        "tenant": (_STR, False),
        "priority": (_STR, False),
        "source": (_STR, False),       # "memo"|"executed"|"coalesced"
        "code": (_INT, False),         # HTTP status on rejected/failed
        "reason": (_STR, False),
        "wall_s": (_NUM, False),
        "attempt": (_INT, False),
    },
    # One per level stream the array backend's compiled epoch replay
    # walked (per PE at L1, per group at L2, once at the LLC; per group
    # at the STLB, per PE at the BBF stream buffer and victim cache),
    # timed inside the call.  "chosen" is the walk that ran: "native"
    # (the compiled kernel); without it each run replays through the
    # scalar oracle and no level stream is walked or recorded.
    "dispatch": {
        "cache": (_STR, True),         # e.g. "l1[3]", "stlb[0]", "llc"
        "level": (_STR, True),         # one of DISPATCH_LEVELS
        "events": (_INT, True),        # stream length
        "chosen": (_STR, True),        # one of _WALKS
        "measured_us": (_NUM, True),
    },
}

_WALKS = ("native", "python")
_RUN_STATUS = ("ok", "failed")
_JOB_STATUS = (
    "started", "completed", "failed", "requeued", "quarantined",
)
DISPATCH_LEVELS = ("l1", "l2", "llc", "stlb", "bbf", "victim")
"""Structures the array backend walks, dense cascade first: each is an
LRU cache (the STLB and the BBF stream buffer with one set)."""
_SERVICE_STATUS = (
    "request_received", "coalesced", "admitted", "rejected",
    "served", "failed",
)


def validate_event(event: Mapping[str, Any]) -> None:
    """Raise :class:`LedgerSchemaError` unless ``event`` conforms."""
    etype = event.get("e")
    if etype not in EVENT_TYPES:
        raise LedgerSchemaError(f"unknown event type {etype!r}")
    t = event.get("t")
    if not isinstance(t, _NUM) or isinstance(t, bool) or t < 0:
        raise LedgerSchemaError(
            f"{etype}: 't' must be a non-negative number, got {t!r}"
        )
    run = event.get("run")
    if not isinstance(run, str) or not run:
        raise LedgerSchemaError(
            f"{etype}: 'run' must be a non-empty string, got {run!r}"
        )
    fields = EVENT_TYPES[etype]
    for name, (types, required) in fields.items():
        if name not in event:
            if required:
                raise LedgerSchemaError(
                    f"{etype}: missing required field {name!r}"
                )
            continue
        value = event[name]
        if isinstance(value, bool) and bool not in types:
            raise LedgerSchemaError(
                f"{etype}: field {name!r} has bool value {value!r}, "
                f"expected {tuple(t.__name__ for t in types)}"
            )
        if not isinstance(value, types):
            raise LedgerSchemaError(
                f"{etype}: field {name!r} is {type(value).__name__}, "
                f"expected {tuple(t.__name__ for t in types)}"
            )
    extras = set(event) - set(fields) - {"e", "t", "run"}
    if extras:
        raise LedgerSchemaError(
            f"{etype}: unknown fields {sorted(extras)}"
        )
    # Enum constraints ride on top of the type tables.
    if etype == "dispatch" and event["chosen"] not in _WALKS:
        raise LedgerSchemaError(
            f"dispatch: chosen must be one of {_WALKS}, "
            f"got {event['chosen']!r}"
        )
    if etype == "dispatch" and event["level"] not in DISPATCH_LEVELS:
        raise LedgerSchemaError(
            f"dispatch: level must be one of {DISPATCH_LEVELS}, "
            f"got {event['level']!r}"
        )
    if etype == "run_end" and event["status"] not in _RUN_STATUS:
        raise LedgerSchemaError(
            f"run_end: status must be one of {_RUN_STATUS}, "
            f"got {event['status']!r}"
        )
    if etype == "run_end" and event.get("kernels", "native") not in _WALKS:
        raise LedgerSchemaError(
            f"run_end: kernels must be one of {_WALKS}, "
            f"got {event['kernels']!r}"
        )
    if etype == "sweep_job" and event["status"] not in _JOB_STATUS:
        raise LedgerSchemaError(
            f"sweep_job: status must be one of {_JOB_STATUS}, "
            f"got {event['status']!r}"
        )
    if etype == "service" and event["status"] not in _SERVICE_STATUS:
        raise LedgerSchemaError(
            f"service: status must be one of {_SERVICE_STATUS}, "
            f"got {event['status']!r}"
        )


def as_json_schema() -> Dict[str, Any]:
    """The taxonomy rendered as a draft-07-style JSON Schema (one
    ``oneOf`` branch per event type), for external validators."""
    def type_name(t: type) -> str:
        return {
            int: "integer", float: "number", str: "string",
            bool: "boolean", type(None): "null", list: "array",
        }[t]

    branches = []
    for etype, fields in sorted(EVENT_TYPES.items()):
        props: Dict[str, Any] = {
            "e": {"const": etype},
            "t": {"type": "number", "minimum": 0},
            "run": {"type": "string", "minLength": 1},
        }
        required = ["e", "t", "run"]
        for name, (types, req) in fields.items():
            names = sorted({type_name(t) for t in types})
            props[name] = {
                "type": names[0] if len(names) == 1 else names
            }
            if req:
                required.append(name)
        branches.append({
            "type": "object",
            "properties": props,
            "required": required,
            "additionalProperties": False,
        })
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": f"repro run ledger v{LEDGER_SCHEMA_VERSION}",
        "oneOf": branches,
    }
