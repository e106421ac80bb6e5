"""Test-only switches between the compiled kernels and their twins.

The simulator runs the compiled kernels (``repro/native/``) when the
library loads on the host and their Python twins otherwise (for trace
replay, the scalar oracle itself); tests force the twins by patching
the loader's per-process memo for the duration of a block.  That is a
test-only switch, not a knob.

Also here: a bare processing element and seeded chunk lists for driving
trace generation (``repro.core.vectorized``) directly.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
from contextlib import contextmanager
from typing import Callable, List, Optional, Tuple

import numpy as np
import pytest

from repro import native
from repro.config import CacheConfig, scaled_config
from repro.core.bypass import BypassPolicy
from repro.core.cpe import ControlProcessor
from repro.core.instructions import Primitive
from repro.core.pe import ProcessingElement
from repro.core.vectorized import generate_sddmm_epoch, generate_spmm_epoch
from repro.memory.address import AddressMap
from repro.memory.cache import Cache
from repro.memory.tlb import STLB
from repro.memory.hierarchy import (
    OP_DENSE,
    OP_DENSE_BYPASS,
    OP_REGION_SHIFT,
    OP_WRITE,
    MemorySystem,
    ServiceLevel,
)

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


def segment(n: int, at: int = 0) -> np.ndarray:
    """The one-row merge table over the first ``n`` nonzeros, writing
    (SDDMM) from output slot ``at``: one chunk's merge."""
    return np.array([[0, n, at]], dtype=np.int64)


Outcomes = Tuple[np.ndarray, np.ndarray]
"""Per access of a walked stream: whether it hit, and the dirty line it
evicted (:data:`NO_LINE` if none)."""

NO_LINE = -1
UNDECODED = -2
"""An eviction the state diff of its chunk does not pin to one line."""


def oracle_walk(cache: Cache, lines, writes) -> Outcomes:
    """The stream through :meth:`Cache.access`, one access at a time."""
    hits, evicted = [], []
    for line, w in zip(np.asarray(lines).tolist(), np.asarray(writes).tolist()):
        hit, victim = cache.access(line, w)
        hits.append(hit)
        evicted.append(NO_LINE if victim is None else victim)
    return np.array(hits, dtype=bool), np.array(evicted, dtype=np.int64)


def _regions(n: int) -> Tuple[int, ...]:
    """Region names for an ``n``-access trace where access ``i`` is the
    region ``i + 1`` (a falsy name records no traffic)."""
    return tuple(range(1, n + 1))


def _traffic(ms: MemorySystem, n: int) -> np.ndarray:
    """Each access's DRAM traffic under :func:`_regions`."""
    return np.array(
        [ms._region_traffic.get(i, 0) for i in range(1, n + 1)],
        dtype=np.int64,
    )


def _one_pe_system(replay: str) -> MemorySystem:
    """A one-PE system with a one-entry STLB: every replay walks the
    STLB, and a full 1,536-entry one would go in and out of each call
    though no walk here looks at it."""
    ms = MemorySystem(dataclasses.replace(scaled_config(1), replay=replay))
    ms.stlbs[0] = STLB(1)
    return ms


def _one_eviction_chunks(cache: Cache, lines: List[int], writes: List[bool]):
    """Cut a stream into chunks ``(lo, hi)`` in which no set evicts
    twice when a dirty line is among its victims, as
    :meth:`Cache.access` walks it on a copy of ``cache``."""
    plan = copy.deepcopy(cache)
    ns, ways = cache.num_sets, cache.ways
    lo, evicting = 0, {}
    for i, (line, w) in enumerate(zip(lines, writes)):
        s = line % ns
        d = plan._sets[s]
        if line not in d and len(d) >= ways:
            dirty = next(iter(d.values()))
            if s in evicting and (evicting[s] or dirty):
                yield lo, i
                lo, evicting = i, {}
            evicting[s] = evicting.get(s, False) or dirty
        plan.access(line, w)
    if lo < len(lines):
        yield lo, len(lines)


def epoch_walk(cache: Cache, lines, writes) -> Outcomes:
    """The stream through ``replay="array"``'s epoch replay (the
    compiled call where it loads, else the oracle), with ``cache``
    installed as the victim cache of a one-PE system.

    Each access gets its own DRAM region, so the region's traffic says
    whether it evicted a dirty line (a write) besides its miss (a read
    unless it writes).  The stream replays in chunks where a correct
    walk evicts at most once from a set holding a dirty victim, so the
    line such an access evicted is the one its set lost over the chunk:
    its residents before, plus the lines the chunk's misses allocated
    there, minus its residents after."""
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    writes = np.ascontiguousarray(writes, dtype=bool)
    n = lines.shape[0]
    hits: List[bool] = []
    evicted = [NO_LINE] * n
    ms = _one_pe_system("array")
    ms.bbfs[0].victim = cache
    traffic = ms._region_traffic
    ns = cache.num_sets
    line_l, write_l = lines.tolist(), writes.tolist()
    ops = OP_DENSE_BYPASS + OP_WRITE * writes.astype(np.int64)
    region = np.arange(n, dtype=np.int64) << OP_REGION_SHIFT
    names = _regions(n)
    for lo, hi in list(_one_eviction_chunks(cache, line_l, write_l)):
        k = hi - lo
        chunk = range(lo, hi)
        sets = {line_l[i] % ns for i in chunk}
        before = {s: set(cache._sets[s]) for s in sets}
        traffic.clear()
        levels = ms.replay_trace(
            0, lines[lo:hi], ops[lo:hi] + region[:k], names[:k]
        )
        hit = (levels == int(ServiceLevel.VICTIM)).tolist()
        hits += hit
        allocated: dict = {}
        for i, h in zip(chunk, hit):
            if not h:
                allocated.setdefault(line_l[i] % ns, set()).add(line_l[i])
        for j, (i, h) in enumerate(zip(chunk, hit)):
            if traffic.get(j + 1, 0) - (not h and not write_l[i]) != 1:
                continue
            s = line_l[i] % ns
            lost = (before[s] | allocated.get(s, set())) - set(cache._sets[s])
            evicted[i] = lost.pop() if len(lost) == 1 else UNDECODED
    return np.array(hits, dtype=bool), np.array(evicted, dtype=np.int64)


def l2_walk(
    cache: Cache, lines, writes, replay: str
) -> Tuple[np.ndarray, np.ndarray]:
    """The stream through the dense path of a one-PE system whose L2 is
    ``cache``, behind a one-set two-way L1, with ``replay`` "array" (the
    compiled call where it loads) or "scalar" (the oracle).  The L1's
    fills and dirty victims reach the L2, where only read misses fill
    (a dirty victim the L2 no longer holds is allocated without a fill
    from the LLC).  Each access gets its own DRAM region; returns each
    access's service level and DRAM traffic."""
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    writes = np.ascontiguousarray(writes, dtype=bool)
    n = lines.shape[0]
    ms = _one_pe_system(replay)
    ms.l1s[0] = Cache(CacheConfig(size_bytes=2 * 64, associativity=2), "l1")
    ms.l2s[0] = cache
    ops = (
        OP_DENSE + OP_WRITE * writes.astype(np.int64)
        + (np.arange(n, dtype=np.int64) << OP_REGION_SHIFT)
    )
    levels = ms.replay_trace(0, lines, ops, _regions(n))
    return levels, _traffic(ms, n)


def level_walks() -> List[Tuple[str, Callable[..., Outcomes]]]:
    """The walks of one cache over a stream to hold to each other: the
    oracle, and the compiled epoch replay where it loads."""
    walks = [("python", oracle_walk)]
    if native.replay_epoch_kernel() is not None:
        walks.append(("native", epoch_walk))
    return walks


# -- trace generation on a bare PE ------------------------------------------

ROWS = COLS = 512
"""Dense rows of the rMatrix and the cMatrix."""
SPARSE_NNZ = 4096
"""Elements of each sparse stream (r_ids, c_ids, vals)."""
OUT_VALS = 8192
"""Values of the SDDMM output array."""

GENERATE = {
    "spmm": lambda pe, epoch: generate_spmm_epoch(pe, *epoch),
    "sddmm": lambda pe, epoch: generate_sddmm_epoch(pe, *epoch),
}
"""Generate one epoch ``(r_ids, c_ids, chunks)`` on a PE."""

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
    )


OBSERVED = ("segments", "trace lines", "trace ops", "ordered tags",
            "VRF counters", "PE counters")


def chunk_parts(
    kernel: str,
    r_ids: np.ndarray,
    c_ids: np.ndarray,
    cuts,
    rng: np.random.Generator,
    out_jumps=(),
) -> tuple:
    """Split an epoch's nonzeros into chunks at ``cuts`` (sorted
    positions; repeats make empty chunks) and lay them out as the
    generators read them: ``(r_ids, c_ids, chunks)``, the id arrays
    :data:`SPARSE_NNZ` long with each chunk's ids at a random sparse
    start, in a random order along the stream with random gaps, and the
    int64 chunk table of (input offset, count, output start).  SDDMM
    chunks write consecutive output values, so output-line runs cross
    chunk bounds, except that chunk ``i`` starts at a random offset when
    ``i`` is in ``out_jumps``."""
    bounds = [0, *cuts, len(r_ids)]
    sizes = np.diff(bounds)
    slack = SPARSE_NNZ - len(r_ids)
    gaps = np.sort(rng.integers(0, slack + 1, size=len(sizes)))
    starts = np.zeros(len(sizes), dtype=np.int64)
    placed = 0
    for gap, i in zip(gaps.tolist(), rng.permutation(len(sizes)).tolist()):
        starts[i] = gap + placed
        placed += sizes[i]
    table = np.zeros((len(sizes), 3), dtype=np.int64)
    r_out = np.zeros(SPARSE_NNZ, dtype=np.int64)
    c_out = np.zeros(SPARSE_NNZ, dtype=np.int64)
    out = int(rng.integers(0, 64))
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        start = int(starts[i])
        r_out[start : start + hi - lo] = r_ids[lo:hi]
        c_out[start : start + hi - lo] = c_ids[lo:hi]
        if kernel == "sddmm" and i in out_jumps:
            out = int(rng.integers(0, OUT_VALS // 2))
        table[i] = (start, hi - lo, out if kernel == "sddmm" else 0)
        out += hi - lo
    return r_out, c_out, table


def csr_epoch(
    kernel: str,
    rng: np.random.Generator,
    n_runs: int,
    max_run: int,
    rows: int = 40,
    cols: int = COLS,
    n_chunks: int = 4,
) -> tuple:
    """A seeded epoch shaped like a CSR row panel: runs of equal r_ids,
    random c_ids, cut into chunks at random points (laid out by
    :func:`chunk_parts`)."""
    runs = rng.integers(1, max_run + 1, size=n_runs)
    r_ids = np.repeat(rng.integers(0, rows, size=n_runs), runs)
    c_ids = rng.integers(0, cols, size=r_ids.size)
    cuts = np.sort(rng.integers(0, r_ids.size + 1, size=n_chunks - 1))
    jumps = set(rng.integers(0, n_chunks, size=1).tolist())
    return chunk_parts(
        kernel, r_ids.astype(np.int64), c_ids.astype(np.int64),
        cuts.tolist(), rng, jumps,
    )
