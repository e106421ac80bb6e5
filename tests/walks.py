"""Test-only switches between the compiled kernels and their twins.

The simulator runs the compiled walks (``repro/native/``) when the
library loads on the host and their Python twins otherwise; tests force
the twins by patching the loader's per-process memo for the duration of
a block.  That is a test-only switch, not a knob.

Also here: a bare processing element and seeded chunk lists for driving
trace generation (``repro.core.vectorized``) directly.
"""

from __future__ import annotations

import dataclasses
import functools
from contextlib import contextmanager
from typing import Callable, List, Optional, Tuple

import numpy as np
import pytest

from repro import native
from repro.config import scaled_config
from repro.core.bypass import BypassPolicy
from repro.core.cpe import ControlProcessor
from repro.core.instructions import Primitive
from repro.core.pe import ProcessingElement
from repro.core.vectorized import generate_sddmm_epoch, generate_spmm_epoch
from repro.memory.address import AddressMap
from repro.memory.hierarchy import MemorySystem
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


# -- trace generation on a bare PE ------------------------------------------

ROWS = COLS = 512
"""Dense rows of the rMatrix and the cMatrix."""
SPARSE_NNZ = 4096
"""Elements of each sparse stream (r_ids, c_ids, vals)."""
OUT_VALS = 8192
"""Values of the SDDMM output array."""

GENERATE = {"spmm": generate_spmm_epoch, "sddmm": generate_sddmm_epoch}

VRF_STATE = (
    "tag_hits",
    "tag_misses",
    "evictions",
    "eviction_writebacks",
    "manager_writebacks",
    "_dirty_count",
)


@functools.lru_cache(maxsize=None)
def _pe_setup(kernel: str, k: int):
    cfg = scaled_config(1)
    prim = Primitive.SPMM if kernel == "spmm" else Primitive.SDDMM
    amap = AddressMap()
    for region in ("sparse_r_ids", "sparse_c_ids", "sparse_vals"):
        amap.allocate(region, SPARSE_NNZ * 4)
    amap.allocate_dense("rmatrix", ROWS, k)
    amap.allocate_dense("cmatrix", COLS, k)
    if prim is Primitive.SDDMM:
        amap.allocate("sparse_out_vals", OUT_VALS * 4)
    init = ControlProcessor.make_initialization(
        prim, amap, rmatrix_bypass=False, cmatrix_bypass=False,
        dense_row_size=k,
    )
    return cfg, MemorySystem(cfg), init, amap


def vrf_pe(
    kernel: str,
    k: int = 16,
    cap: int = 64,
    high: Optional[int] = None,
    low: Optional[int] = None,
) -> ProcessingElement:
    """A cold PE for ``kernel`` ("spmm" or "sddmm") with dense rows of
    ``k`` values and a ``cap``-line VRF with the paper's 25%/15%
    watermarks, or explicit ones (set directly, so geometries the
    constructor rejects, such as one register or ``high == 0``, can be
    walked too)."""
    cfg, memory, init, amap = _pe_setup(kernel, k)
    pe = ProcessingElement(0, cfg.pe, memory, init, amap, BypassPolicy())
    vrf = pe.vrf
    ref = type(vrf)(max(cap, 2), 0.25, 0.15)
    vrf.num_registers = cap
    vrf._high = ref._high if high is None else high
    vrf._low = ref._low if low is None else low
    return pe


def observe(pe: ProcessingElement, segs) -> tuple:
    """What one generation call leaves behind: its segments, the trace
    bytes, the ordered VRF tags, the VRF counters and dirty count, and
    the PE counters."""
    lines, ops = pe._trace.views()
    vrf = pe.vrf
    return (
        segs,
        lines.tobytes(),
        ops.tobytes(),
        list(vrf._tags.items()),
        tuple(getattr(vrf, a) for a in VRF_STATE),
        dataclasses.asdict(pe.counters),
        sorted(pe._rmatrix_rows_touched),
    )


OBSERVED = ("segments", "trace lines", "trace ops", "ordered tags",
            "VRF counters", "PE counters", "rMatrix rows")


def chunk_parts(
    kernel: str,
    r_ids: np.ndarray,
    c_ids: np.ndarray,
    cuts,
    rng: np.random.Generator,
    out_jumps=(),
) -> list:
    """Split an epoch's nonzeros into chunks at ``cuts`` (sorted
    positions; repeats make empty chunks), each with a random sparse
    start.  SDDMM chunks write consecutive output values, so output-line
    runs cross chunk bounds, except that chunk ``i`` starts at a random
    offset when ``i`` is in ``out_jumps``."""
    bounds = [0, *cuts, len(r_ids)]
    parts = []
    out = int(rng.integers(0, 64))
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        start = int(rng.integers(0, SPARSE_NNZ - (hi - lo) + 1))
        if kernel == "spmm":
            parts.append((r_ids[lo:hi], c_ids[lo:hi], start))
            continue
        if i in out_jumps:
            out = int(rng.integers(0, OUT_VALS // 2))
        parts.append((r_ids[lo:hi], c_ids[lo:hi], start, out))
        out += hi - lo
    return parts


def csr_epoch(
    kernel: str,
    rng: np.random.Generator,
    n_runs: int,
    max_run: int,
    rows: int = 40,
    cols: int = COLS,
    n_chunks: int = 4,
) -> list:
    """A seeded epoch shaped like a CSR row panel: runs of equal r_ids,
    random c_ids, cut into chunks at random points."""
    runs = rng.integers(1, max_run + 1, size=n_runs)
    r_ids = np.repeat(rng.integers(0, rows, size=n_runs), runs)
    c_ids = rng.integers(0, cols, size=r_ids.size)
    cuts = np.sort(rng.integers(0, r_ids.size + 1, size=n_chunks - 1))
    jumps = set(rng.integers(0, n_chunks, size=1).tolist())
    return chunk_parts(
        kernel, r_ids.astype(np.int64), c_ids.astype(np.int64),
        cuts.tolist(), rng, jumps,
    )
