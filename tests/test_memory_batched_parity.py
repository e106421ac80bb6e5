"""Differential parity: one cache's walk vs the scalar oracle.

The array replay backend walks every cache of the hierarchy inside one
compiled call per epoch (``repro/native/replay_epoch.c``).  A cache's
walk must be *bit-identical* to issuing the same stream through
``Cache.access`` one access at a time: same counters, same per-access
outcomes (hit, evicted dirty line), same LRU order, same dirty bits,
with state carried across calls.  These tests replay randomized traces —
mixed read/write, power-of-two strides, hot-set skew, consecutive-run
heavy, multi-level pressure — through the oracle and through the
compiled call (``tests.walks.epoch_walk``: the cache as a one-PE
system's victim cache) and require exact equality; the same holds for
the one-set BBF stream buffer and STLB, and for whole ``MemorySystem``
traces with the kernel loaded and with the oracle forced.

(The file and test names are kept from the batched backend these walks
replaced, so the suite's test ids stay stable.)
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import CacheConfig, scaled_config
from repro.memory.bbf import BypassBuffer
from repro.memory.cache import Cache
from repro.memory.hierarchy import (
    OP_DENSE,
    OP_DENSE_BYPASS,
    OP_STREAM,
    TRACE_REGIONS,
    MemorySystem,
    encode_op,
)
from repro.memory.tlb import LINES_PER_PAGE, STLB
from tests.walks import NO_LINE, WALKS, kernels, level_walks

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
    """Every set's ``(line, dirty)`` residents in LRU order (insertion
    order in the per-set dicts IS the LRU order), read as a snapshot: a
    compiled replay's state keeps the residents, so the next replay
    starts from it as a run of epochs would."""
    return cache.state_dict()["sets"]


def scalar_cache_replay(cache: Cache, lines, writes):
    """The oracle: per-access ``(hit, evicted dirty line)`` outcomes."""
    hits, evicted = [], []
    for line, w in zip(lines.tolist(), writes.tolist()):
        h, e = cache.access(line, w)
        hits.append(h)
        evicted.append(NO_LINE if e is None else e)
    return np.array(hits, dtype=bool), np.array(evicted, dtype=np.int64)


def counters(obj, names):
    return {name: getattr(obj, name) for name in names}


CACHE_COUNTERS = ("hits", "misses", "writebacks", "fills", "flush_writebacks")


# ---------------------------------------------------------------------------
# One cache level: every walk vs the oracle
# ---------------------------------------------------------------------------


def assert_walks_match_scalar(make_cache, batches, warm=None):
    """Replay ``batches`` of ``(lines, writes)`` through the oracle and
    through each walk (one call per batch, state carried across calls),
    after the optional ``warm`` batch went through ``Cache.access``;
    require identical outcomes, counters and per-set LRU/dirty state."""
    ref = make_cache()
    caches = {name: make_cache() for name, _ in level_walks()}
    if warm is not None:
        for c in [ref, *caches.values()]:
            scalar_cache_replay(c, *warm)
    want = [scalar_cache_replay(ref, lines, w) for lines, w in batches]
    for name, walk in level_walks():
        cache = caches[name]
        got = [walk(cache, lines, w) for lines, w in batches]
        for k, ((wh, we), (gh, ge)) in enumerate(zip(want, got)):
            assert np.array_equal(wh, gh), f"{name}: hits, batch {k}"
            assert np.array_equal(we, ge), f"{name}: victims, batch {k}"
        assert counters(ref, CACHE_COUNTERS) == counters(
            cache, CACHE_COUNTERS
        ), name
        assert cache_state(ref) == cache_state(cache), name
        assert all(
            type(d) is bool for s in cache._sets for d in s.values()
        ), name
    return ref


@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("geom", GEOMETRIES, ids=lambda g: f"{g.size_bytes}B-{g.associativity}w")
def test_cache_access_many_matches_scalar(trace_name, geom):
    rng = np.random.default_rng(hash(trace_name) % 2**32)
    lines, writes = TRACES[trace_name](rng, 4000)
    # Several calls: state must carry across them.
    batches = [
        (lines[lo:lo + 1111], writes[lo:lo + 1111])
        for lo in range(0, lines.shape[0], 1111)
    ]
    ref = assert_walks_match_scalar(lambda: Cache(geom), batches)
    assert ref.occupancy() > 0


def test_cache_access_many_scalar_write_flag():
    """Streams of one write flag: all reads leave every line clean, all
    writes make every resident dirty and every eviction a writeback."""
    rng = np.random.default_rng(0)
    lines = rng.integers(0, 512, size=2000)
    for flag in (False, True):
        w = np.full(lines.shape[0], flag)
        ref = assert_walks_match_scalar(
            lambda: Cache(GEOMETRIES[0]), [(lines, w)]
        )
        assert ref.dirty_lines() == (ref.occupancy() if flag else 0)
        assert (ref.writebacks > 0) == flag


def test_cache_access_many_empty():
    """An empty stream emits nothing and leaves warm state untouched."""
    rng = np.random.default_rng(1)
    warm = (rng.integers(0, 256, size=300), rng.random(300) < 0.5)
    for _, walk in level_walks():
        cache = Cache(GEOMETRIES[0])
        scalar_cache_replay(cache, *warm)
        before = (cache_state(cache), counters(cache, CACHE_COUNTERS))
        hits, evicted = walk(cache, np.empty(0, np.int64), np.empty(0, bool))
        assert hits.shape == evicted.shape == (0,)
        assert (cache_state(cache), counters(cache, CACHE_COUNTERS)) == before


# ---------------------------------------------------------------------------
# BBF stream buffer parity: a one-set cache
# ---------------------------------------------------------------------------


def make_bbf(entries=8):
    return BypassBuffer(entries, CacheConfig(size_bytes=1024, associativity=2))


@pytest.mark.parametrize(
    "name,build",
    [
        # Strictly increasing, disjoint from residency: a FIFO.
        ("increasing", lambda rng: (np.arange(100, 400), np.zeros(300, bool))),
        ("increasing_writes", lambda rng: (np.arange(50), np.ones(50, bool))),
        # Fewer new lines than capacity: nothing evicted.
        ("increasing_small", lambda rng: (np.arange(5), rng.random(5) < 0.5)),
        # Repeats and revisits.
        ("with_runs", lambda rng: (np.repeat(np.arange(40), 3), rng.random(120) < 0.3)),
        ("revisit", lambda rng: (np.concatenate([np.arange(20), np.arange(20)]),
                                 np.zeros(40, bool))),
        ("random", lambda rng: (rng.integers(0, 32, size=500), rng.random(500) < 0.4)),
    ],
)
def test_bbf_stream_many_matches_scalar(name, build):
    rng = np.random.default_rng(7)
    lines, writes = build(rng)
    assert_walks_match_scalar(lambda: make_bbf().stream, [(lines, writes)])


def test_bbf_fast_path_after_warmup():
    """The walk is exact when the buffer already holds (dirty) lines
    that a disjoint increasing batch partially evicts."""
    warm = (np.arange(1000, 1008), np.array([True, False] * 4))
    # Disjoint increasing batch larger than capacity: evicts the whole
    # warm set plus the head of the batch itself.
    lines = np.arange(20)
    writes = np.array([True] * 3 + [False] * 17)
    ref = assert_walks_match_scalar(
        lambda: make_bbf().stream, [(lines, writes)], warm=warm
    )
    assert ref.writebacks > 0


# ---------------------------------------------------------------------------
# STLB parity: a one-set cache keyed by page
# ---------------------------------------------------------------------------


def pages_of(lines: np.ndarray) -> np.ndarray:
    return lines // LINES_PER_PAGE


@pytest.mark.parametrize(
    "name,entries,num_pages",
    [
        ("fits", 64, 32),          # nothing evicted
        ("thrash", 8, 64),         # evicting
        ("boundary", 16, 16),      # exactly fills the TLB
    ],
)
def test_stlb_translate_many_matches_scalar(name, entries, num_pages):
    rng = np.random.default_rng(42)
    # Page = line*64 // 4096: 64 lines per page.
    lines = rng.integers(0, num_pages * 64, size=3000)
    batches = [
        (pages_of(lines[lo:lo + 700]), np.zeros(len(lines[lo:lo + 700]), bool))
        for lo in range(0, lines.shape[0], 700)
    ]
    ref = assert_walks_match_scalar(lambda: STLB(entries), batches)
    scalar = STLB(entries)
    for line in lines.tolist():
        scalar.translate_line(line)
    assert (scalar.hits, scalar.misses) == (ref.hits, ref.misses)


def test_stlb_fast_path_reorders_resident_pages():
    """Resident pages touched by a stream move to MRU in last-access
    order, exactly as scalar replay does."""
    warm = (np.arange(6), np.zeros(6, bool))  # pages 0..5
    trace = np.array([2, 2, 0, 4, 0, 9, 1])
    ref = assert_walks_match_scalar(
        lambda: STLB(16), [(trace, np.zeros(7, bool))], warm=warm
    )
    assert list(ref._sets[0]) == [3, 5, 2, 4, 0, 9, 1]


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
    replayed on several PEs (shared L2/LLC/STLB contention included),
    with the kernel loaded and with the oracle forced."""
    cfg = scaled_config(4, cache_shrink=8)
    for walk in WALKS:
        ms_s = MemorySystem(dataclasses.replace(cfg, replay="scalar"))
        ms_a = MemorySystem(cfg)
        rng = np.random.default_rng(footprint)
        for chunk_idx in range(6):
            pe_id = int(rng.integers(0, cfg.num_pes))
            lines, ops = random_op_trace(rng, 2500, footprint)
            lv_s = scalar_system_replay(ms_s, pe_id, lines, ops)
            with kernels(walk):
                lv_a = ms_a.replay_trace(pe_id, lines, ops)
            assert np.array_equal(lv_s, lv_a), (
                f"{walk}: levels diverged in chunk {chunk_idx}"
            )

        assert dataclasses.asdict(ms_s.collect_stats()) == dataclasses.asdict(
            ms_a.collect_stats()
        )
        for c_s, c_a in zip(ms_s.l1s + ms_s.l2s + [ms_s.llc],
                            ms_a.l1s + ms_a.l2s + [ms_a.llc]):
            assert c_s.occupancy() == c_a.occupancy()
            assert c_s.dirty_lines() == c_a.dirty_lines()
        assert system_state(ms_s) == system_state(ms_a)


def test_memory_system_replay_then_flush_parity():
    """Flush after replay: identical dirty counts and flush accounting."""
    cfg = scaled_config(4, cache_shrink=8)
    rng = np.random.default_rng(99)
    lines, ops = random_op_trace(rng, 5000, 4096)
    for walk in WALKS:
        ms_s = MemorySystem(dataclasses.replace(cfg, replay="scalar"))
        ms_a = MemorySystem(cfg)
        scalar_system_replay(ms_s, 1, lines, ops)
        with kernels(walk):
            ms_a.replay_trace(1, lines, ops)
        assert ms_s.flush_all() == ms_a.flush_all()
        assert dataclasses.asdict(ms_s.collect_stats()) == dataclasses.asdict(
            ms_a.collect_stats()
        )
