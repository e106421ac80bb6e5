"""Host speed, from a fixed calibration loop.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds as neighbours come and go.  Every timed piece of
work is bracketed by two samples of a calibration loop, run in the same
thread, and its wall time is scaled to what it would have taken at
:data:`NOMINAL_S` per loop: a neighbour that slows the host slows both
alike, and the scaled time moves less than the wall time.  The loop
mixes what the simulator does -- a NumPy sort and Python dict updates --
but calls none of the simulator's code, so a faster simulator does not
speed it up.  Its inputs take about 2 MB.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

import numpy as np

NOMINAL_S = 0.02
"""Calibration-loop seconds that define nominal host speed (about one
loop on an idle 2.1 GHz Xeon)."""


class HostSpeed:
    """Samples the calibration loop and scales wall times by it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20231017)
        self._keys = rng.integers(0, 1 << 40, size=100_000)
        self._counted = (self._keys[:60_000] % 8191).tolist()
        self.sample()  # first touch of the inputs

    def sample(self) -> float:
        """Seconds one calibration loop takes now."""
        t0 = time.perf_counter()
        np.argsort(self._keys, kind="stable")
        counts: Dict[int, int] = {}
        for key in self._counted:
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - t0

    def timed(self, fn: Callable[[], object]) -> Tuple[float, float, object]:
        """Run ``fn`` between two calibration samples; returns its wall
        seconds, the same scaled to nominal host speed, and its result."""
        before = self.sample()
        t0 = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - t0
        after = self.sample()
        return wall, wall * NOMINAL_S * 2 / (before + after), value

