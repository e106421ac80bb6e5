"""The run ledger: an append-only JSONL flight recorder.

One :class:`RunLedger` records one run's (or one sweep job's) lifecycle
as a stream of typed events (see :mod:`repro.obs.schema`): what the
supervisor retried and why, where each epoch's host time went, and —
the part no counter can reconstruct after the fact — how long each
cache level's replay walk took, and which walk (compiled or Python)
ran.

Design points:

- **Append-only JSONL**, one event per line: crash-tolerant (a torn
  final line loses one event, not the file), streamable, and mergeable
  by concatenation — which is exactly how sweep worker shards fold into
  the parent ledger, in job-index order.
- **Buffered writer**: events accumulate as pre-serialised lines and
  hit the file every ``flush_every`` events (or at close), so the hot
  dispatch sites pay a dict build + ``json.dumps``, never a syscall.
- **Monotonic timestamps**: ``t`` is ``time.monotonic()`` relative to
  ledger open — immune to wall-clock adjustment, comparable within one
  ledger, and meaningless across ledgers by construction (cross-ledger
  ordering uses run ids, not clocks).
- **Null object**: :data:`NULL_LEDGER` answers the same surface with
  no-ops and ``enabled = False`` (its ``span`` is one shared no-op),
  so instrumented code guards the *argument build* with one attribute
  check and disabled runs write zero events at unmeasurable cost.
- **One stream**: the ledger is the only recorder.  Host phases are
  ``span`` events (:meth:`RunLedger.span`); the Chrome trace, the
  ``--profile`` table and the metrics are exports of the events plus
  the values the simulator returns (:mod:`repro.obs.trace`,
  :mod:`repro.obs.metrics`).

Correlation ids: a run ledger derives ``run_id`` from entropy at open;
sweep job shards reuse the job's sha256 content key (first 16 hex), so
a job's events correlate with its result-cache entry by construction.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.schema import LEDGER_SCHEMA_VERSION, validate_event


def _jsonable(value: Any) -> Any:
    """Fold numpy scalars (and anything with ``.item()``) to plain
    Python so events serialise and validate type-stably."""
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (str, bytes)):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return value


def derive_run_id(*parts: str) -> str:
    """A 16-hex correlation id.  With ``parts`` (e.g. a job's sha256
    key) the id is a pure function of them; without, it mixes pid and
    wall clock for uniqueness across concurrent runs."""
    if not parts:
        parts = (str(os.getpid()), str(time.time_ns()))
    h = hashlib.sha256("\x1f".join(parts).encode())
    return h.hexdigest()[:16]


class _NullSpan:
    """Shared no-op span handed out by the null ledger."""

    __slots__ = ()

    dur_s = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class _Span:
    """Times one host phase; on exit emits one ``span`` event."""

    __slots__ = ("ledger", "name", "fields", "start", "dur_s")

    def __init__(self, ledger: "RunLedger", name: str, fields) -> None:
        self.ledger = ledger
        self.name = name
        self.fields = fields
        self.start = 0.0
        self.dur_s = 0.0

    def __enter__(self) -> "_Span":
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.dur_s = time.monotonic() - self.start
        self.ledger.emit(
            "span",
            name=self.name,
            start_s=round(self.start - self.ledger._t0, 9),
            dur_s=round(self.dur_s, 9),
            **self.fields,
        )


class NullLedger:
    """Shared no-op ledger: the disabled path costs one attribute read."""

    __slots__ = ()

    enabled = False
    run_id = ""
    path: Optional[Path] = None

    def emit(self, etype: str, **fields: Any) -> None:
        pass

    def span(self, name: str, **fields: Any) -> _NullSpan:
        return NULL_SPAN

    def events(self) -> List[Dict[str, Any]]:
        return []

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def summary(self) -> Optional[Dict[str, Any]]:
        return None

    def __enter__(self) -> "NullLedger":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


NULL_LEDGER = NullLedger()


class RunLedger:
    """Buffered append-only JSONL event writer for one run."""

    enabled = True

    def __init__(
        self,
        path,
        run_id: Optional[str] = None,
        flush_every: int = 256,
        validate: bool = False,
    ) -> None:
        self.path = Path(path)
        self.run_id = run_id or derive_run_id()
        self._flush_every = max(1, flush_every)
        self._validate = validate
        self._t0 = time.monotonic()
        self._buf: List[str] = []
        self._events = 0
        self._closed = False
        # Serialises buffer mutation against flush: the service emits
        # from its HTTP loop and its pool thread concurrently, and two
        # racing flushes must not write overlapping buffer snapshots.
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------

    def emit(self, etype: str, **fields: Any) -> None:
        """Record one event; see :mod:`repro.obs.schema` for types."""
        event: Dict[str, Any] = {
            k: _jsonable(v) for k, v in fields.items()
        }
        event["e"] = etype
        event["t"] = round(time.monotonic() - self._t0, 9)
        event["run"] = self.run_id
        if self._validate:
            validate_event(event)
        line = json.dumps(event, sort_keys=True)
        with self._lock:
            self._buf.append(line)
            self._events += 1
            full = len(self._buf) >= self._flush_every
        if full:
            self.flush()

    def span(self, name: str, **fields: Any) -> _Span:
        """Context manager timing one host phase on the ledger's clock:
        on exit it emits a ``span`` event with the phase's start
        (``start_s``, seconds since the ledger opened) and duration
        (``dur_s``), plus ``fields`` (``cat`` is required)."""
        return _Span(self, name, fields)

    def append_raw(self, lines: Iterable[str]) -> None:
        """Append already-serialised event lines (shard merge path)."""
        with self._lock:
            for line in lines:
                line = line.strip()
                if line:
                    self._buf.append(line)
                    self._events += 1
            full = len(self._buf) >= self._flush_every
        if full:
            self.flush()

    # -- persistence -----------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            if not self._buf:
                return
            pending, self._buf = self._buf, []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(pending) + "\n")

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self._closed = True

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def events_recorded(self) -> int:
        return self._events

    def events(self) -> List[Dict[str, Any]]:
        """Every event recorded so far, in order (flushes first)."""
        self.flush()
        return read_events(self.path) if self.path.exists() else []

    def summary(self) -> Dict[str, Any]:
        """Provenance cross-link: where the ledger is and what it holds.
        Flushes first so the digest covers every recorded event."""
        self.flush()
        return {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "path": str(self.path),
            "run_id": self.run_id,
            "events": self._events,
            "digest": file_digest(self.path),
        }


# -- files and shards -------------------------------------------------------


def open_run_ledger(
    directory, run_id: Optional[str] = None, validate: bool = False
) -> RunLedger:
    """The conventional per-run ledger file inside ``directory``."""
    run_id = run_id or derive_run_id()
    path = Path(directory) / f"run-{run_id}.jsonl"
    return RunLedger(path, run_id=run_id, validate=validate)


def shard_path(directory, index: int, key: str) -> Path:
    """Worker-side shard file for sweep job ``index``; the name embeds
    the index so the parent can merge deterministically."""
    return Path(directory) / f"shard-{index:06d}-{key[:16]}.jsonl"


def open_shard_dir(ledger: RunLedger) -> Path:
    """A fresh directory, beside ``ledger``'s file, for the job shards
    of one runner.  Runners that share a ledger directory (two sweeps,
    a service pool next to a sweep) each merge only their own shards.
    The leading dot keeps it out of ledger-directory listings."""
    parent = ledger.path.parent
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f".shards-{ledger.run_id}-", dir=parent))


def merge_shards(
    directory,
    ledger: RunLedger,
    jobs: Optional[Iterable[Tuple[int, str]]] = None,
) -> int:
    """Fold shard files under ``directory`` into ``ledger`` in ascending
    job-index order (the lexicographic order of the zero-padded names),
    deleting merged shards.  Returns the number of event lines merged.

    ``jobs`` limits the merge to the shards of those ``(index, key)``
    jobs, for callers whose other jobs may still be writing theirs;
    without it every ``shard-*.jsonl`` in ``directory`` is merged.
    Deterministic: independent of pool completion order because merging
    happens from sorted names once the merged jobs have finished.
    """
    if jobs is None:
        shards = sorted(Path(directory).glob("shard-*.jsonl"))
    else:
        shards = sorted({shard_path(directory, i, k) for i, k in jobs})
    merged = 0
    for shard in shards:
        try:
            lines = shard.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            continue  # the job never started writing
        ledger.append_raw(lines)
        merged += sum(1 for ln in lines if ln.strip())
        shard.unlink()
    return merged


def close_shard_dir(directory, ledger: RunLedger) -> int:
    """Merge whatever shards remain in a runner's shard directory (jobs
    whose worker died) and remove it.  Returns the lines merged."""
    merged = merge_shards(directory, ledger)
    try:
        Path(directory).rmdir()
    except OSError:
        pass  # a straggler is still writing; leave it for inspection
    return merged


def read_events(path) -> List[Dict[str, Any]]:
    """All events of one ledger file, in file order."""
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def iter_ledger_files(paths: Iterable) -> List[Path]:
    """Expand files/directories into a sorted list of ledger files.
    Nonexistent paths expand to nothing — callers report an empty
    expansion rather than tripping over a FileNotFoundError mid-read."""
    out: List[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(sorted(p.glob("*.jsonl")))
        elif p.exists():
            out.append(p)
    return out


def file_digest(path) -> Optional[str]:
    """sha256 of the ledger file, or None if nothing was written."""
    p = Path(path)
    if not p.exists():
        return None
    h = hashlib.sha256()
    with open(p, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def peak_rss_bytes() -> Optional[int]:
    """This process's peak resident set size, or None where the
    ``resource`` module is unavailable (non-POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only container
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    import sys

    return rss if sys.platform == "darwin" else rss * 1024
