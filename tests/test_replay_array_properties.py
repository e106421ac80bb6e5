"""Property-based tests (hypothesis) for the array replay backend.

Three layers of randomized evidence, all shrinkable to tiny
counterexamples:

* A pure **stack-distance oracle** — the textbook inclusion property
  of LRU (an access hits iff the number of distinct lines touched in
  its set since its previous occurrence is below the associativity) —
  checked against the scalar ``Cache`` walk, and against the compiled
  epoch replay where gcc exists (``tests.walks.epoch_walk``: the cache
  as a one-PE system's victim cache).
* The **compiled epoch replay vs ``Cache.access``** on bare caches of
  the shapes the hierarchy uses — one-set 1,536-way (the STLB), one-set
  32-way (a stream buffer), 128x2, 64x8, 1024x20 and direct-mapped —
  with warm dirty residents, read/write mixes, hot lines reused near
  capacity, empty streams and line values above 2**40: per-access hits
  and evicted dirty lines (and, with the cache as an L2 where only
  read misses fill, each access's service level and DRAM traffic),
  counters, and per-set LRU order with dirty bits, carried across
  calls.
* **Full MemorySystem traces** — random interleaved dense / bypass /
  stream ops with random chunk boundaries, replayed through
  ``replay="array"`` (kernel loaded and oracle forced) vs the scalar
  oracle: every AccessStats counter and the complete hierarchy state.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import CacheConfig, scaled_config
from repro.memory.cache import Cache
from repro.memory.hierarchy import (
    OP_DENSE,
    OP_DENSE_BYPASS,
    OP_STREAM,
    TRACE_REGIONS,
    MemorySystem,
    encode_op,
)
from tests.test_memory_batched_parity import (
    CACHE_COUNTERS,
    cache_state,
    counters,
    scalar_system_replay,
    system_state,
)
from tests.walks import (
    WALKS,
    epoch_walk,
    kernels,
    l2_walk,
    level_walks,
    oracle_walk,
)


# ---------------------------------------------------------------------------
# The shrinkable stack-distance oracle
# ---------------------------------------------------------------------------


def stack_distance_reference(lines, num_sets: int, ways: int):
    """Hit/miss per access by the LRU inclusion property alone.

    Each set keeps an unbounded recency stack (index 0 = MRU).  An
    access hits iff its line sits at stack depth < ``ways``: exactly
    the lines a W-way LRU set would still hold.  No evictions are ever
    modelled — that independence is what makes it an oracle.
    """
    stacks = [[] for _ in range(num_sets)]
    hits = []
    for line in lines:
        s = stacks[line % num_sets]
        if line in s:
            hit = s.index(line) < ways
            s.remove(line)
        else:
            hit = False
        s.insert(0, line)
        hits.append(hit)
    return hits


def scalar_replay(cache: Cache, lines, writes):
    return [cache.access(l, w)[0] for l, w in zip(lines, writes)]


traces = st.lists(
    st.tuples(st.integers(0, 23), st.booleans()),
    min_size=1,
    max_size=120,
)


@given(ways=st.integers(1, 8), set_bits=st.integers(0, 3), trace=traces)
@settings(max_examples=80, deadline=None)
def test_scalar_cache_matches_stack_distance_oracle(
    ways, set_bits, trace
):
    num_sets = 1 << set_bits
    cfg = CacheConfig(
        size_bytes=64 * ways * num_sets, associativity=ways
    )
    cache = Cache(cfg)
    assert cache.num_sets == num_sets
    lines = [t[0] for t in trace]
    writes = [t[1] for t in trace]
    assert scalar_replay(cache, lines, writes) == (
        stack_distance_reference(lines, num_sets, ways)
    )


# ---------------------------------------------------------------------------
# The cache walks vs brute force on random (sets, ways, trace)
# ---------------------------------------------------------------------------


@st.composite
def geometry_and_trace(draw):
    ways = draw(st.integers(1, 8))
    num_sets = 1 << draw(st.integers(0, 3))
    # Footprints from "fits in one set" to far beyond capacity.
    footprint = draw(st.sampled_from([ways, 2 * ways, 24, 200]))
    trace = draw(
        st.lists(
            st.tuples(st.integers(0, footprint - 1), st.booleans()),
            min_size=1,
            max_size=150,
        )
    )
    return ways, num_sets, trace


def long_window_trace():
    """One 8-way set: ten cold lines, then five lines cycling with
    200-access runs of two hot lines between them — every cycling
    access's reuse spans ~1000 positions over only 7 distinct lines."""
    trace = [(line, False) for line in range(100, 110)]
    for i in range(15):
        trace.append((i % 5, i % 2 == 0))
        trace += [(50 + k % 2, k % 9 == 0) for k in range(200)]
    return 8, 1, trace


def wrapped_window_trace():
    """One 8-way set, twice: a line, 25 accesses cycling over seven
    others, the line again, two new lines."""
    once = [(0, False)] + [(1 + i % 7, i % 3 == 0) for i in range(25)]
    once += [(0, True), (8, False), (9, False)]
    return 8, 1, once * 2


@given(geometry_and_trace())
@example(long_window_trace())
@example(wrapped_window_trace())
@settings(max_examples=80, deadline=None)
def test_array_solver_matches_bruteforce(params):
    """The epoch replay this host runs (the compiled call where gcc
    exists), split in two calls, against the stack-distance oracle
    (per-access hits) and the scalar walk (counters, LRU order, dirty
    bits)."""
    ways, num_sets, trace = params
    cfg = CacheConfig(size_bytes=64 * ways * num_sets, associativity=ways)
    lines = np.array([t[0] for t in trace], dtype=np.int64)
    writes = np.array([t[1] for t in trace], dtype=bool)
    oracle, walked = Cache(cfg, name="oracle"), Cache(cfg, name="walk")
    cut = len(trace) // 2
    hits = np.concatenate([
        epoch_walk(walked, lines[lo:hi], writes[lo:hi])[0]
        for lo, hi in ((0, cut), (cut, len(trace)))
    ])
    want = stack_distance_reference(lines.tolist(), num_sets, ways)
    assert hits.tolist() == want
    assert scalar_replay(oracle, lines.tolist(), writes.tolist()) == want
    assert counters(oracle, CACHE_COUNTERS) == counters(
        walked, CACHE_COUNTERS
    )
    assert cache_state(oracle) == cache_state(walked)


SHAPES = [(1, 1536), (1, 32), (128, 2), (64, 8), (1024, 20), (16, 1), (1, 1)]
"""(sets, ways): the STLB, a stream buffer, L1/L2/LLC-like and
direct-mapped shapes, and a one-line cache."""


@st.composite
def walk_cases(draw):
    num_sets, ways = draw(st.sampled_from(SHAPES))
    base = draw(st.sampled_from([0, 2**40 + 3]))
    # "set": ways + 1 lines of one set (a hot line reused right at
    # capacity); "near": just past the whole cache; "far": 4x over.
    spread = draw(st.sampled_from(["set", "near", "far"]))
    warm = draw(st.integers(0, 300))
    calls = draw(st.lists(
        st.tuples(
            st.integers(0, 300),                # 0: empty
            st.sampled_from([0.0, 0.3, 1.0]),   # write share
            st.sampled_from(["all", "reads"]),  # who fills
        ),
        min_size=1, max_size=3,
    ))
    seed = draw(st.integers(0, 2**32 - 1))
    return num_sets, ways, base, spread, warm, calls, seed


def _case_lines(rng, num_sets, ways, base, spread, n):
    capacity = num_sets * ways
    if spread == "set":
        raw = num_sets * rng.integers(0, ways + 1, size=n) + 3 % num_sets
    elif spread == "near":
        raw = rng.integers(0, capacity + capacity // 8 + 2, size=n)
    else:
        raw = rng.integers(0, 4 * capacity + 16, size=n)
    # Hot-line reuse: a third of the accesses go to `ways` hot lines.
    hot = rng.random(n) < 0.33
    raw[hot] = rng.integers(0, ways, size=int(hot.sum())) * num_sets
    return (base + raw).astype(np.int64)


@given(walk_cases())
@settings(max_examples=60, deadline=None)
def test_dict_walk_matches_array_solver(case):
    """The compiled epoch replay and ``Cache.access`` give every access
    the same outcome and leave the same counters and per-set LRU /
    dirty state, call after call, from warm dirty residents.  Where
    every miss fills (the cache as a victim cache) the outcome is the
    hit and the evicted dirty line; where only read misses fill (the
    cache as an L2, fed by an L1's fills and dirty victims and held to
    the oracle's L2) it is the access's service level and DRAM
    traffic."""
    if len(level_walks()) == 1:
        pytest.skip("the compiled epoch replay does not load on this host")
    num_sets, ways, base, spread, warm, calls, seed = case
    rng = np.random.default_rng(seed)
    cfg = CacheConfig(size_bytes=64 * ways * num_sets, associativity=ways)
    twin, compiled = Cache(cfg, name="twin"), Cache(cfg, name="kernel")
    assert twin.num_sets == num_sets
    w_lines = _case_lines(rng, num_sets, ways, base, spread, warm)
    w_writes = rng.random(warm) < 0.5
    for c in (twin, compiled):
        for line, w in zip(w_lines.tolist(), w_writes.tolist()):
            c.access(line, w)
    for n, p_write, fills in calls:
        lines = _case_lines(rng, num_sets, ways, base, spread, n)
        writes = rng.random(n) < p_write
        if fills == "all":
            want = oracle_walk(twin, lines, writes)
            got = epoch_walk(compiled, lines, writes)
        else:
            want = l2_walk(twin, lines, writes, "scalar")
            got = l2_walk(compiled, lines, writes, "array")
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert counters(twin, CACHE_COUNTERS) == counters(
            compiled, CACHE_COUNTERS
        )
        assert cache_state(twin) == cache_state(compiled)
        assert all(
            type(k) is int and type(d) is bool
            for s in compiled._sets for k, d in s.items()
        )


# ---------------------------------------------------------------------------
# Full MemorySystem parity on random op traces
# ---------------------------------------------------------------------------


@st.composite
def op_traces(draw):
    footprint = draw(st.sampled_from([48, 1024, 1 << 14]))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, footprint - 1),
                st.sampled_from([OP_DENSE, OP_DENSE_BYPASS, OP_STREAM]),
                st.booleans(),
                st.integers(0, len(TRACE_REGIONS) - 1),
            ),
            min_size=1,
            max_size=200,
        )
    )
    cut = draw(st.integers(0, len(ops)))
    pe_ids = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    return ops, cut, pe_ids


@given(op_traces())
@settings(max_examples=40, deadline=None)
def test_memory_system_array_matches_scalar(params):
    ops, cut, pe_ids = params
    cfg = scaled_config(2, cache_shrink=8)
    lines = np.array([o[0] for o in ops], dtype=np.int64)
    enc = np.array(
        [encode_op(int(p), bool(w), int(r)) for _, p, w, r in ops],
        dtype=np.int64,
    )
    for walk in WALKS:
        ms_s = MemorySystem(dataclasses.replace(cfg, replay="scalar"))
        ms_a = MemorySystem(dataclasses.replace(cfg, replay="array"))
        with kernels(walk):
            for (lo, hi), pe_id in zip(
                ((0, cut), (cut, len(ops))), pe_ids
            ):
                if hi == lo:
                    continue
                lv_s = scalar_system_replay(
                    ms_s, pe_id, lines[lo:hi], enc[lo:hi]
                )
                lv_a = ms_a.replay_trace(pe_id, lines[lo:hi], enc[lo:hi])
                assert np.array_equal(lv_s, lv_a)
        assert dataclasses.asdict(ms_s.collect_stats()) == (
            dataclasses.asdict(ms_a.collect_stats())
        )
        assert system_state(ms_s) == system_state(ms_a)
