"""Shared helpers: checkout paths, statistics, peak memory, the outcome."""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
"""Set-up runs this many times per run; ``setup_s`` is their median."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)

    def check(self, bad: int, total: int, what: str) -> None:
        """Count ``total`` attempted operations, ``bad`` of them failed."""
        self.attempted += total
        if bad:
            self.failed += bad
            self.problems.append(f"{bad}/{total} {what}")


def p95(samples: List[float]) -> float:
    """The 95th percentile, interpolated between order statistics."""
    if len(samples) < 2:
        return float(samples[0])
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def timed_setup(
    speed,
    build: Callable[[], object],
    discard: Optional[Callable[[object], None]] = None,
) -> Tuple[float, object]:
    """Run ``build`` :data:`SETUP_REPEATS` times; returns the median
    seconds, scaled to nominal host speed, and the last result.
    ``discard`` releases the results that are not kept, outside the
    timed region."""
    times = []
    value = None
    for i in range(SETUP_REPEATS):
        if i and discard is not None:
            discard(value)
        _, scaled, value = speed.timed(build)
        times.append(scaled)
    return statistics.median(times), value


def peak_rss_mb(include_self: bool = True) -> float:
    """Peak resident set of this process or its largest reaped
    descendant (pool workers, the service process), in MB.  A workload
    whose system runs wholly in child processes leaves this process, the
    client, out."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not include_self:
        return children / 1024.0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, children) / 1024.0
