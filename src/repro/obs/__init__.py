"""repro.obs: the run-ledger flight recorder and its reporting.

- :class:`RunLedger` / :data:`NULL_LEDGER` (``ledger``): buffered
  append-only JSONL event writer with monotonic timestamps and run/job
  correlation ids; the shared null object makes disabled runs free.
- :mod:`~repro.obs.schema`: the typed event taxonomy (run / epoch /
  checkpoint / retry / degradation / sweep-job / cache-hit / dispatch)
  and its dependency-free validator.
- :mod:`~repro.obs.report`: ``repro obs report`` aggregation — phase
  hotspots, replay time per cache level, which walks (compiled or
  Python) ran, sweep hit rates, retry/degradation timeline.

With a ledger attached, ``replay="array"`` records one ``dispatch``
event per level stream it walks — the cache, the event count, the walk
that ran and its measured wall time — so replay time splits by level.
"""

from repro.obs.ledger import (
    NULL_LEDGER,
    NullLedger,
    RunLedger,
    derive_run_id,
    file_digest,
    iter_ledger_files,
    merge_shards,
    open_run_ledger,
    peak_rss_bytes,
    read_events,
    shard_path,
)
from repro.obs.report import aggregate, format_report, validate_ledgers
from repro.obs.schema import (
    EVENT_TYPES,
    LEDGER_SCHEMA_VERSION,
    LedgerSchemaError,
    as_json_schema,
    validate_event,
)

__all__ = [
    "NULL_LEDGER",
    "NullLedger",
    "RunLedger",
    "derive_run_id",
    "file_digest",
    "iter_ledger_files",
    "merge_shards",
    "open_run_ledger",
    "peak_rss_bytes",
    "read_events",
    "shard_path",
    "aggregate",
    "format_report",
    "validate_ledgers",
    "EVENT_TYPES",
    "LEDGER_SCHEMA_VERSION",
    "LedgerSchemaError",
    "as_json_schema",
    "validate_event",
]
