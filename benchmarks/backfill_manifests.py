"""Backfill provenance manifests into existing benchmark result files.

Result JSONs written before the telemetry layer (PR 1's
``BENCH_replay.json``) carry measured numbers but no provenance; this
helper re-emits them with the ``manifest`` field added so the whole
``BENCH_*.json`` trajectory validates against the manifest schema.
**Measured numbers are never touched**: every pre-existing key is
preserved byte-for-byte at the JSON level, and ``--check`` verifies
files without writing anything.

Run from the repo root::

    PYTHONPATH=src python benchmarks/backfill_manifests.py           # stamp
    PYTHONPATH=src python benchmarks/backfill_manifests.py --check   # verify
    PYTHONPATH=src python benchmarks/backfill_manifests.py path.json ...
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from repro.obs.provenance import (
    run_manifest,
    validate_manifest,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def default_targets() -> List[Path]:
    """Every tracked benchmark result JSON at the repo root."""
    return sorted(REPO_ROOT.glob("BENCH_*.json"))


def backfill_file(path: Path, write: bool = True) -> str:
    """Stamp one result file in place.

    Returns one of ``"ok"`` (already has a valid manifest),
    ``"stamped"`` (manifest added), or — in check mode — ``"missing"``.
    """
    payload = json.loads(path.read_text())
    manifest = payload.get("manifest")
    if manifest is not None:
        validate_manifest(manifest)
        return "ok"
    if not write:
        return "missing"
    # Re-emit with provenance; everything measured passes through
    # unchanged (the manifest only *adds* a key).
    payload["manifest"] = run_manifest(
        workload={"source": path.name},
        extra={
            "backfilled": True,
            "note": "manifest added after the fact; config/host "
            "describe the backfill run, not the original measurement",
        },
    )
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return "stamped"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="result JSONs to stamp (default: repo-root BENCH_*.json)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="verify manifests exist and validate; write nothing",
    )
    args = parser.parse_args(argv)
    targets = args.paths or default_targets()
    if not targets:
        print("no benchmark result files found")
        return 0
    missing = 0
    for path in targets:
        status = backfill_file(path, write=not args.check)
        print(f"{path.name:30s} {status}")
        if status == "missing":
            missing += 1
    if missing:
        print(f"{missing} file(s) lack a manifest", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
