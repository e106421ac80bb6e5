"""``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_traced.py SPAN_DIR serve [serve flags...]

The service's pool workers fork from this process, so they inherit the
wrappers and append the spans of every kernel they run to SPAN_DIR.
The server's own spans (result-cache probes) are written at exit.
"""

from __future__ import annotations

import sys
from pathlib import Path

from common import SRC

sys.path.insert(0, str(SRC))

import spans  # noqa: E402


def main(argv) -> int:
    recorder = spans.Recorder(dump_dir=Path(argv[0]))
    recorder.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
