"""repro.obs: the run ledger — the simulator's one recorder — and its
exports.

- :class:`RunLedger` / :data:`NULL_LEDGER` (``ledger``): buffered
  append-only JSONL event writer with monotonic timestamps, run/job
  correlation ids and timed ``span`` phases; the shared null object
  makes disabled runs free.
- :mod:`~repro.obs.schema`: the typed event taxonomy (run / span /
  epoch / checkpoint / retry / degradation / sweep-job /
  cache-hit / service / dispatch) and its dependency-free validator.
- :mod:`~repro.obs.report`: ``repro obs report`` aggregation — phase
  hotspots, replay time per cache level, which walks (compiled or
  Python) ran, sweep hit rates, retry/degradation timeline.
- :mod:`~repro.obs.trace`: the Chrome trace (Perfetto) and the
  ``--profile`` table of a ledger's spans.
- :mod:`~repro.obs.metrics` / :mod:`~repro.obs.exporters`: metrics
  derived from a run's report and events, the sweep report or the
  service stats, rendered as JSON, CSV or Prometheus text.
- :mod:`~repro.obs.provenance`: run manifests (schema version, config
  hash, git SHA, workload, host, ledger cross-link).

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
from repro.obs.exporters import to_csv, to_json, to_prometheus, write_metrics
from repro.obs.metrics import (
    MetricsRegistry,
    run_metrics,
    service_metrics,
    sweep_metrics,
)
from repro.obs.provenance import (
    MANIFEST_SCHEMA_VERSION,
    diff_manifests,
    run_manifest,
    stamp,
    validate_manifest,
)
from repro.obs.report import aggregate, format_report, validate_ledgers
from repro.obs.schema import (
    EVENT_TYPES,
    LEDGER_SCHEMA_VERSION,
    LedgerSchemaError,
    as_json_schema,
    validate_event,
)
from repro.obs.trace import chrome_trace, format_profile, profile, write_trace

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
    "MetricsRegistry",
    "run_metrics",
    "sweep_metrics",
    "service_metrics",
    "to_csv",
    "to_json",
    "to_prometheus",
    "write_metrics",
    "MANIFEST_SCHEMA_VERSION",
    "diff_manifests",
    "run_manifest",
    "stamp",
    "validate_manifest",
    "chrome_trace",
    "format_profile",
    "profile",
    "write_trace",
    "EVENT_TYPES",
    "LEDGER_SCHEMA_VERSION",
    "LedgerSchemaError",
    "as_json_schema",
    "validate_event",
]
