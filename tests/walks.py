"""Test-only switches between the compiled kernels and their twins.

The simulator runs the compiled walks (``repro/native/``) when the
library loads on the host and their Python twins otherwise; tests force
the twins by patching the loader's per-process memo for the duration of
a block.  That is a test-only switch, not a knob.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable, List, Tuple

import pytest

from repro import native
from repro.memory.replay_array import walk_native, walk_twin

WALKS = ("native", "python")


@contextmanager
def kernels(walk: str):
    """Run the block with the compiled kernels (``"native"``) or with
    their Python twins forced (``"python"``)."""
    with pytest.MonkeyPatch.context() as mp:
        if walk == "python":
            mp.setattr(native, "_tried", True)
            mp.setattr(native, "_kernels", None)
        yield


def level_walks() -> List[Tuple[str, Callable]]:
    """The cache-level walks to hold to the oracle: the Python twin, and
    the compiled kernel where it loads (as ``walk(cache, lines, writes,
    isfill)``)."""
    walks = [("python", walk_twin)]
    kernel = native.cache_walk_kernel()
    if kernel is not None:
        walks.append(("native", functools.partial(walk_native, kernel)))
    return walks
