"""Property-based tests (hypothesis) for the array replay backend.

Three layers of randomized evidence, all shrinkable to tiny
counterexamples:

* A pure **stack-distance oracle** — the textbook inclusion property
  of LRU (an access hits iff the number of distinct lines touched in
  its set since its previous occurrence is below the associativity) —
  checked against the scalar ``Cache`` walk.  This is the theory the
  array solver is built on; if it ever disagreed with the dict walk,
  every downstream equivalence argument would be void.
* The **array solver on a bare cache** with random geometry (sets,
  ways, footprint) and random traces, vs the scalar walk AND the
  oracle: counters, per-set LRU order, dirty bits.  The cost model is
  disabled so the NumPy path (small-footprint fast path or bounded-
  window walk, whichever the trace selects) is always the thing under
  test; a long-window case also trips the walk's probe cap.
* **Full MemorySystem traces** — random interleaved dense / bypass /
  stream ops with random chunk boundaries, replayed through
  ``replay="array"`` vs the scalar oracle: every AccessStats counter
  and the complete hierarchy state.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np
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
import repro.memory.replay_array as replay_array

from tests.test_memory_batched_parity import (
    CACHE_COUNTERS,
    cache_state,
    counters,
    scalar_system_replay,
    system_state,
)


@contextlib.contextmanager
def forced_array():
    """Pin dispatch to the NumPy solver for the duration of a block.

    A plain context manager (not a pytest fixture) so hypothesis does
    not see function-scoped fixture state shared across examples.
    """
    saved = (replay_array.ARRAY_MIN_EVENTS, replay_array._PY_HIT_US)
    replay_array.ARRAY_MIN_EVENTS = 0
    replay_array._PY_HIT_US = 1e9
    try:
        yield
    finally:
        replay_array.ARRAY_MIN_EVENTS, replay_array._PY_HIT_US = saved


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
# Array solver vs brute force on random (sets, ways, trace)
# ---------------------------------------------------------------------------


@st.composite
def geometry_and_trace(draw):
    ways = draw(st.integers(1, 8))
    num_sets = 1 << draw(st.integers(0, 3))
    # Footprints from "fits in one set" (fast path) to far beyond
    # capacity (window walk): both solver branches get traffic.
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
    """One 8-way set: ten cold lines (more distinct lines than ways, so
    the window walk runs), then five lines cycling with 200-access runs
    of two hot lines between them — every cycling access walks back
    ~1000 positions over only 7 distinct lines before it hits."""
    trace = [(line, False) for line in range(100, 110)]
    for i in range(15):
        trace.append((i % 5, i % 2 == 0))
        trace += [(50 + k % 2, k % 9 == 0) for k in range(200)]
    return 8, 1, trace


def wrapped_window_trace():
    """One 8-way set, twice: a line, 25 accesses cycling over seven
    others, the line again, two new lines.  The first call replays it
    from a cold cache; the reused line's walk outlives two doublings,
    so without a width bound its block would reach past the start of
    the layout (offset 56 at position 26 of 29)."""
    once = [(0, False)] + [(1 + i % 7, i % 3 == 0) for i in range(25)]
    once += [(0, True), (8, False), (9, False)]
    return 8, 1, once * 2


def solve_in_two_calls(ways, num_sets, trace, audits=None):
    """Replay ``trace`` through the array solver (split in two calls)
    and through the scalar walk; assert they end identical."""
    cfg = CacheConfig(
        size_bytes=64 * ways * num_sets, associativity=ways
    )
    lines = np.array([t[0] for t in trace], dtype=np.int64)
    writes = np.array([t[1] for t in trace], dtype=bool)

    oracle = Cache(cfg, name="oracle")
    solved = Cache(cfg, name="array")
    # Split at a random-ish point: solver state must carry across
    # calls exactly like the incremental walk's does.
    cut = len(trace) // 2
    with forced_array():
        for lo, hi in ((0, cut), (cut, len(trace))):
            if hi == lo:
                continue
            chunk = lines[lo:hi]
            set_id = chunk % num_sets
            audit = {} if audits is not None else None
            replay_array._replay_level_array(
                solved,
                chunk,
                writes[lo:hi],
                None,
                np.arange(hi - lo, dtype=np.int64),
                set_id,
                np.unique(set_id),
                audit,
            )
            if audits is not None:
                audits.append(audit)
    s_hits = scalar_replay(oracle, lines.tolist(), writes.tolist())
    assert s_hits == stack_distance_reference(
        lines.tolist(), num_sets, ways
    )
    assert counters(oracle, CACHE_COUNTERS) == counters(
        solved, CACHE_COUNTERS
    )
    assert cache_state(oracle) == cache_state(solved)


@given(geometry_and_trace())
@example(long_window_trace())
@example(wrapped_window_trace())
@settings(max_examples=80, deadline=None)
def test_array_solver_matches_bruteforce(params):
    solve_in_two_calls(*params)


@given(geometry_and_trace())
@example(long_window_trace())
@example(wrapped_window_trace())
@settings(max_examples=40, deadline=None)
def test_array_solver_one_offset_walk_matches_bruteforce(params):
    # Short traces leave few walkers, which take the window walk's 2-D
    # block branch; a threshold of 1 sends them through the
    # one-offset-per-pass branch that long epoch streams use.
    saved = replay_array._WINDOW_WIDE_ROWS
    replay_array._WINDOW_WIDE_ROWS = 1
    try:
        solve_in_two_calls(*params)
    finally:
        replay_array._WINDOW_WIDE_ROWS = saved


@given(geometry_and_trace(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_dict_walk_matches_array_solver(params, rnd):
    """The dict walk (and its no-eviction bulk update, which a one-set
    cache whose residents plus the stream's line range fit in its ways
    takes) emits the same next-level events as the array solver and
    leaves the same counters and state, call after call."""
    ways, num_sets, trace = params
    cfg = CacheConfig(size_bytes=64 * ways * num_sets, associativity=ways)
    walked, solved = Cache(cfg, name="walk"), Cache(cfg, name="array")
    cut = len(trace) // 2
    for lo, hi in ((0, cut), (cut, len(trace))):
        if hi == lo:
            continue
        line = np.array([t[0] for t in trace[lo:hi]], dtype=np.int64)
        write = np.array([t[1] for t in trace[lo:hi]], dtype=bool)
        isfill = (
            None if rnd.random() < 0.5
            else np.array([rnd.random() < 0.7 for _ in line], dtype=bool)
        )
        trig = np.arange(hi - lo, dtype=np.int64) * 3 + lo
        set_id = line % num_sets
        got = replay_array._replay_level_python(
            walked, line, write, isfill, trig
        )
        want = replay_array._replay_level_array(
            solved, line, write, isfill, trig, set_id, np.unique(set_id)
        )
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert counters(walked, CACHE_COUNTERS) == counters(
            solved, CACHE_COUNTERS
        )
        assert cache_state(walked) == cache_state(solved)


def test_array_solver_probe_cap_falls_back(monkeypatch):
    # Past the probe budget the level goes to the dict walk before
    # anything is mutated, and the result is still exact.  The first
    # call's walk takes 2-3 probes per element, so a budget of 1 trips.
    monkeypatch.setattr(replay_array, "PROBE_CAP_PER_EVENT", 1)
    audits = []
    solve_in_two_calls(*long_window_trace(), audits=audits)
    assert audits[0].get("bailed")


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
    cfg_a = dataclasses.replace(cfg, replay="array")
    ms_s = MemorySystem(cfg)
    ms_a = MemorySystem(cfg_a)
    lines = np.array([o[0] for o in ops], dtype=np.int64)
    enc = np.array(
        [encode_op(int(p), bool(w), int(r)) for _, p, w, r in ops],
        dtype=np.int64,
    )
    with forced_array():
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
