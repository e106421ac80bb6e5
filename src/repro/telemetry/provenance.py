"""Run provenance manifests.

A manifest stamps one performance record — a ``BENCH_*.json`` payload,
a CLI run's metrics/trace export — with everything needed to compare it
against past and future records: a schema version, the exact system
configuration (flattened and content-hashed), the workload spec and
seed, the repository's git SHA, and the host that produced it.  Two
runs whose manifests agree on config fingerprint + workload are
comparable; anything else is apples to oranges, and
:func:`diff_manifests` says exactly which axis moved.
"""

from __future__ import annotations

import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.jobmodel import config_fingerprint

MANIFEST_SCHEMA_VERSION = 1
"""Bump when manifest keys change meaning; CI rejects records without it."""

_REQUIRED_KEYS = ("schema_version", "created_utc", "host")


def git_revision(repo_dir: Optional[Path] = None) -> Optional[str]:
    """The current git SHA, or None outside a repo / without git."""
    if repo_dir is None:
        repo_dir = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def host_info() -> Dict[str, Any]:
    """Wall-clock host identity: enough to explain perf deltas."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep
        numpy_version = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "node": platform.node(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
    }


def run_manifest(
    config=None,
    workload: Optional[Dict[str, Any]] = None,
    seed: Optional[int] = None,
    argv: Optional[list] = None,
    extra: Optional[Dict[str, Any]] = None,
    ledger=None,
) -> Dict[str, Any]:
    """Build one provenance manifest.

    ``config`` is a SpadeConfig (or plain dict); ``workload`` is a
    free-form spec of what ran (matrix generator + parameters, kernel,
    K); ``extra`` lands under ``"extra"`` untouched.  ``ledger`` is a
    run ledger whose :meth:`summary` (path, run id, event count, file
    digest) cross-links the flight recording that this record came
    from; disabled/null ledgers contribute nothing.
    """
    manifest: Dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "created_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "git_sha": git_revision(),
        "host": host_info(),
    }
    if config is not None:
        summary: Dict[str, Any] = {
            "fingerprint": config_fingerprint(config)
        }
        for key in ("name", "num_pes", "replay"):
            value = getattr(config, key, None)
            if value is not None:
                summary[key] = value
        manifest["config"] = summary
    if workload is not None:
        manifest["workload"] = workload
    if seed is not None:
        manifest["seed"] = seed
    if argv is not None:
        manifest["argv"] = list(argv)
    if extra:
        manifest["extra"] = dict(extra)
    if ledger is not None:
        summary = ledger.summary()
        if summary is not None:
            manifest["ledger"] = summary
    return manifest


def stamp(payload: Dict[str, Any], **manifest_kwargs) -> Dict[str, Any]:
    """Shallow-copy ``payload`` with a ``"manifest"`` key added.  All
    existing keys (the measured numbers) pass through unchanged."""
    out = dict(payload)
    out["manifest"] = run_manifest(**manifest_kwargs)
    return out


def validate_manifest(manifest: Any) -> Dict[str, Any]:
    """Raise ValueError unless ``manifest`` is a structurally valid
    provenance record; returns it for chaining."""
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in manifest:
            raise ValueError(f"manifest missing required key {key!r}")
    version = manifest["schema_version"]
    if not isinstance(version, int) or version < 1:
        raise ValueError(
            f"manifest schema_version must be a positive int, "
            f"got {version!r}"
        )
    return manifest


def diff_manifests(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Tuple[Any, Any]]:
    """Flat {dotted.key: (a_value, b_value)} of every differing leaf.
    ``created_utc`` and ``host`` differences are expected between runs
    and included like any other — callers decide what matters."""
    diff: Dict[str, Tuple[Any, Any]] = {}

    def walk(prefix: str, x: Any, y: Any) -> None:
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(set(x) | set(y)):
                walk(
                    f"{prefix}.{key}" if prefix else key,
                    x.get(key), y.get(key),
                )
        elif x != y:
            diff[prefix] = (x, y)

    walk("", a, b)
    return diff
