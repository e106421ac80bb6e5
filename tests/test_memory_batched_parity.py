"""Differential parity: batched replay vs the scalar oracle.

The batched trace-replay fast path (``Cache.access_many``, also on the
one-set BBF stream buffer and STLB, and ``MemorySystem.replay_trace``)
must be *bit-identical* to issuing the
same trace through the scalar methods one access at a time: same
counters, same per-access outcomes, same LRU order, same dirty bits.
These tests replay randomized traces — mixed read/write, power-of-two
strides, hot-set skew, consecutive-run heavy, multi-level pressure —
through both implementations and require exact equality.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import CacheConfig, scaled_config
from repro.memory.bbf import BypassBuffer
from repro.memory.cache import NO_LINE, Cache
from repro.memory.hierarchy import (
    OP_DENSE,
    OP_DENSE_BYPASS,
    OP_STREAM,
    TRACE_REGIONS,
    MemorySystem,
    encode_op,
)
from repro.memory.tlb import LINES_PER_PAGE, STLB

# ---------------------------------------------------------------------------
# Trace generators (all deterministic via seeds).
# ---------------------------------------------------------------------------


def mixed_random(rng, n, num_lines, p_write=0.3):
    lines = rng.integers(0, num_lines, size=n)
    writes = rng.random(n) < p_write
    return lines, writes


def strided(rng, n, num_lines, stride):
    """Power-of-two strides: pathological set-conflict patterns."""
    lines = (np.arange(n) * stride + rng.integers(0, stride, size=n)) % num_lines
    writes = rng.random(n) < 0.2
    return lines, writes


def hot_set(rng, n, num_lines, hot=16):
    """90% of accesses to a small hot set, 10% uniform cold."""
    hot_lines = rng.choice(num_lines, size=hot, replace=False)
    pick_hot = rng.random(n) < 0.9
    lines = np.where(
        pick_hot,
        hot_lines[rng.integers(0, hot, size=n)],
        rng.integers(0, num_lines, size=n),
    )
    writes = rng.random(n) < 0.4
    return lines, writes


def run_heavy(rng, n, num_lines):
    """Consecutive same-line runs (exercises the RLE dedup)."""
    starts = rng.integers(0, num_lines, size=n // 4 + 1)
    reps = rng.integers(1, 8, size=n // 4 + 1)
    lines = np.repeat(starts, reps)[:n]
    writes = rng.random(lines.shape[0]) < 0.3
    return lines, writes


TRACES = {
    "mixed_random": lambda rng, n: mixed_random(rng, n, 4096),
    "small_footprint": lambda rng, n: mixed_random(rng, n, 64, p_write=0.5),
    "stride_pow2": lambda rng, n: strided(rng, n, 1 << 14, stride=64),
    "stride_pow2_big": lambda rng, n: strided(rng, n, 1 << 16, stride=1024),
    "hot_set_skew": lambda rng, n: hot_set(rng, n, 8192),
    "run_heavy": lambda rng, n: run_heavy(rng, n, 2048),
    "all_reads": lambda rng, n: (rng.integers(0, 4096, size=n), np.zeros(n, bool)),
    "all_writes": lambda rng, n: (rng.integers(0, 2048, size=n), np.ones(n, bool)),
}

GEOMETRIES = [
    CacheConfig(size_bytes=4 * 1024, associativity=8),    # 8 sets
    CacheConfig(size_bytes=2 * 1024, associativity=1),    # direct-mapped
    CacheConfig(size_bytes=16 * 1024, associativity=16),  # 16 ways
]


def cache_state(cache: Cache):
    """Insertion order in the per-set dicts IS the LRU order."""
    return [list(s.items()) for s in cache._sets]


def scalar_cache_replay(cache: Cache, lines, writes):
    hits, evicted = [], []
    for line, w in zip(lines.tolist(), writes.tolist()):
        h, e = cache.access(line, w)
        hits.append(h)
        evicted.append(NO_LINE if e is None else e)
    return np.array(hits), np.array(evicted, dtype=np.int64)


def counters(obj, names):
    return {name: getattr(obj, name) for name in names}


CACHE_COUNTERS = ("hits", "misses", "writebacks", "fills", "flush_writebacks")


# ---------------------------------------------------------------------------
# Cache.access_many parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("geom", GEOMETRIES, ids=lambda g: f"{g.size_bytes}B-{g.associativity}w")
def test_cache_access_many_matches_scalar(trace_name, geom):
    rng = np.random.default_rng(hash(trace_name) % 2**32)
    lines, writes = TRACES[trace_name](rng, 4000)

    scalar = Cache(geom, name="scalar")
    batched = Cache(geom, name="batched")
    s_hits, s_ev = scalar_cache_replay(scalar, lines, writes)

    # Replay in several sub-batches: state must carry across calls.
    b_hits, b_ev = [], []
    for lo in range(0, lines.shape[0], 1111):
        h, e = batched.access_many(lines[lo:lo + 1111], writes[lo:lo + 1111])
        b_hits.append(h)
        b_ev.append(e)
    b_hits = np.concatenate(b_hits)
    b_ev = np.concatenate(b_ev)

    assert np.array_equal(s_hits, b_hits)
    assert np.array_equal(s_ev, b_ev)
    assert counters(scalar, CACHE_COUNTERS) == counters(batched, CACHE_COUNTERS)
    assert scalar.occupancy() == batched.occupancy()
    assert scalar.dirty_lines() == batched.dirty_lines()
    assert cache_state(scalar) == cache_state(batched)


def test_cache_access_many_scalar_write_flag():
    """``writes`` may be a scalar bool applied to the whole batch."""
    rng = np.random.default_rng(0)
    lines = rng.integers(0, 512, size=2000)
    for flag in (False, True):
        scalar = Cache(GEOMETRIES[0])
        batched = Cache(GEOMETRIES[0])
        w = np.full(lines.shape[0], flag)
        scalar_cache_replay(scalar, lines, w)
        batched.access_many(lines, flag)
        assert counters(scalar, CACHE_COUNTERS) == counters(batched, CACHE_COUNTERS)
        assert cache_state(scalar) == cache_state(batched)


def test_cache_access_many_empty():
    cache = Cache(GEOMETRIES[0])
    hits, ev = cache.access_many(np.empty(0, dtype=np.int64), False)
    assert hits.shape == (0,) and ev.shape == (0,)
    assert cache.accesses == 0


# ---------------------------------------------------------------------------
# BBF stream buffer parity: a one-set cache, batched and scalar
# ---------------------------------------------------------------------------


def make_bbf(entries=8):
    return BypassBuffer(entries, CacheConfig(size_bytes=1024, associativity=2))


def scalar_stream_replay(bbf, lines, writes):
    return scalar_cache_replay(bbf.stream, lines, writes)[0]


@pytest.mark.parametrize(
    "name,build",
    [
        # Strictly increasing, disjoint from residency: FIFO fast path.
        ("increasing", lambda rng: (np.arange(100, 400), np.zeros(300, bool))),
        ("increasing_writes", lambda rng: (np.arange(50), np.ones(50, bool))),
        # Fewer new lines than capacity: fast path without overflow.
        ("increasing_small", lambda rng: (np.arange(5), rng.random(5) < 0.5)),
        # Repeats and revisits: general fallback path.
        ("with_runs", lambda rng: (np.repeat(np.arange(40), 3), rng.random(120) < 0.3)),
        ("revisit", lambda rng: (np.concatenate([np.arange(20), np.arange(20)]),
                                 np.zeros(40, bool))),
        ("random", lambda rng: (rng.integers(0, 32, size=500), rng.random(500) < 0.4)),
    ],
)
def test_bbf_stream_many_matches_scalar(name, build):
    rng = np.random.default_rng(7)
    lines, writes = build(rng)
    scalar, batched = make_bbf(), make_bbf()
    s_hits = scalar_stream_replay(scalar, lines, writes)
    b_hits, _ = batched.stream.access_many(lines, writes)
    assert np.array_equal(s_hits, b_hits)
    assert counters(scalar.stream, CACHE_COUNTERS) == counters(
        batched.stream, CACHE_COUNTERS
    )
    assert cache_state(scalar.stream) == cache_state(batched.stream)


def test_bbf_fast_path_after_warmup():
    """Batched replay must also be exact when the buffer already holds
    (dirty) lines that a disjoint increasing batch partially evicts."""
    scalar, batched = make_bbf(), make_bbf()
    warm_lines = np.arange(1000, 1008)
    warm_writes = np.array([True, False] * 4)
    scalar_stream_replay(scalar, warm_lines, warm_writes)
    batched.stream.access_many(warm_lines, warm_writes)
    # Disjoint increasing batch larger than capacity: evicts the whole
    # warm set plus the head of the batch itself.
    lines = np.arange(20)
    writes = np.array([True] * 3 + [False] * 17)
    s_hits = scalar_stream_replay(scalar, lines, writes)
    b_hits, _ = batched.stream.access_many(lines, writes)
    assert np.array_equal(s_hits, b_hits)
    assert counters(scalar.stream, CACHE_COUNTERS) == counters(
        batched.stream, CACHE_COUNTERS
    )
    assert cache_state(scalar.stream) == cache_state(batched.stream)
    assert scalar.stream.writebacks > 0


# ---------------------------------------------------------------------------
# STLB parity: a one-set cache keyed by page, batched and scalar
# ---------------------------------------------------------------------------


def translate_many(stlb: STLB, lines: np.ndarray) -> None:
    stlb.access_many(lines // LINES_PER_PAGE, False)


@pytest.mark.parametrize(
    "name,entries,num_pages",
    [
        ("fits", 64, 32),          # no-eviction fast path
        ("thrash", 8, 64),         # evicting fallback
        ("boundary", 16, 16),      # exactly fills the TLB
    ],
)
def test_stlb_translate_many_matches_scalar(name, entries, num_pages):
    rng = np.random.default_rng(42)
    # Page = line*64 // 4096: 64 lines per page.
    lines = rng.integers(0, num_pages * 64, size=3000)
    scalar, batched = STLB(entries), STLB(entries)
    for line in lines.tolist():
        scalar.translate_line(line)
    for lo in range(0, lines.shape[0], 700):
        translate_many(batched, lines[lo:lo + 700])
    assert (scalar.hits, scalar.misses) == (batched.hits, batched.misses)
    assert cache_state(scalar) == cache_state(batched)


def test_stlb_fast_path_reorders_resident_pages():
    """Resident pages touched by the batch move to MRU in
    last-occurrence order, exactly as scalar replay would."""
    scalar, batched = STLB(16), STLB(16)
    warm = np.arange(6) * 64          # pages 0..5
    trace = np.array([2, 2, 0, 4, 0, 9, 1]) * 64
    for s in (scalar, batched):
        for line in warm.tolist():
            s.translate_line(line)
    for line in trace.tolist():
        scalar.translate_line(line)
    translate_many(batched, trace)
    assert (scalar.hits, scalar.misses) == (batched.hits, batched.misses)
    assert cache_state(scalar) == cache_state(batched)


# ---------------------------------------------------------------------------
# Full MemorySystem parity: interleaved multi-path, multi-PE traces
# ---------------------------------------------------------------------------


def system_state(ms: MemorySystem):
    return (
        [cache_state(c) for c in ms.l1s],
        [cache_state(c) for c in ms.l2s],
        cache_state(ms.llc),
        [cache_state(b.stream) for b in ms.bbfs],
        [cache_state(b.victim) for b in ms.bbfs],
        [cache_state(t) for t in ms.stlbs],
    )


def random_op_trace(rng, n, num_lines):
    """Interleaved dense / bypass / stream ops with mixed writes."""
    lines = rng.integers(0, num_lines, size=n)
    paths = rng.choice([OP_DENSE, OP_DENSE_BYPASS, OP_STREAM], size=n,
                       p=[0.6, 0.2, 0.2])
    writes = rng.random(n) < 0.25
    regions = rng.integers(0, len(TRACE_REGIONS), size=n)
    ops = np.array([
        encode_op(int(p), bool(w), int(r))
        for p, w, r in zip(paths, writes, regions)
    ], dtype=np.int64)
    return lines, ops


def scalar_system_replay(ms: MemorySystem, pe_id, lines, ops):
    from repro.memory.hierarchy import OP_PATH_MASK, OP_REGION_SHIFT, OP_WRITE

    levels = []
    for line, op in zip(lines.tolist(), ops.tolist()):
        w = bool(op & OP_WRITE)
        path = op & OP_PATH_MASK
        region = TRACE_REGIONS[op >> OP_REGION_SHIFT]
        if path == OP_STREAM:
            lvl = ms.stream_access(pe_id, line, w, region=region)
        else:
            lvl = ms.dense_access(
                pe_id, line, w,
                bypass=(path == OP_DENSE_BYPASS), region=region,
            )
        levels.append(int(lvl))
    return np.array(levels, dtype=np.uint8)


@pytest.mark.parametrize("footprint", [512, 1 << 13, 1 << 17],
                         ids=["l1_resident", "l2_resident", "dram_heavy"])
def test_memory_system_replay_parity(footprint):
    """Multi-level pressure: footprints sized to L1, L2, and beyond,
    replayed on several PEs (shared L2/LLC/STLB contention included)."""
    cfg = scaled_config(4, cache_shrink=8)
    ms_s = MemorySystem(cfg)
    ms_b = MemorySystem(dataclasses.replace(cfg, replay="batched"))
    rng = np.random.default_rng(footprint)
    for chunk_idx in range(6):
        pe_id = int(rng.integers(0, cfg.num_pes))
        lines, ops = random_op_trace(rng, 2500, footprint)
        lv_s = scalar_system_replay(ms_s, pe_id, lines, ops)
        lv_b = ms_b.replay_trace(pe_id, lines, ops)
        assert np.array_equal(lv_s, lv_b), f"levels diverged in chunk {chunk_idx}"

    assert dataclasses.asdict(ms_s.collect_stats()) == dataclasses.asdict(
        ms_b.collect_stats()
    )
    for c_s, c_b in zip(ms_s.l1s + ms_s.l2s + [ms_s.llc],
                        ms_b.l1s + ms_b.l2s + [ms_b.llc]):
        assert c_s.occupancy() == c_b.occupancy()
        assert c_s.dirty_lines() == c_b.dirty_lines()
    assert system_state(ms_s) == system_state(ms_b)


def test_memory_system_replay_then_flush_parity():
    """Flush after replay: identical dirty counts and flush accounting."""
    cfg = scaled_config(4, cache_shrink=8)
    ms_s = MemorySystem(cfg)
    ms_b = MemorySystem(dataclasses.replace(cfg, replay="batched"))
    rng = np.random.default_rng(99)
    lines, ops = random_op_trace(rng, 5000, 4096)
    scalar_system_replay(ms_s, 1, lines, ops)
    ms_b.replay_trace(1, lines, ops)
    assert ms_s.flush_all() == ms_b.flush_all()
    assert dataclasses.asdict(ms_s.collect_stats()) == dataclasses.asdict(
        ms_b.collect_stats()
    )
