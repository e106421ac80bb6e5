"""The array replay's run merge and its run-table check.

Between cache levels the array backend merges per-unit event streams
(each PE's L1 events for its L2 group, each group's L2 events for the
LLC) back into trace order along the epoch's dispatch runs: each run's
slice of its unit's events, run after run.  That must return exactly
what a stable sort by trigger returns; the sort lives here only, as the
reference.

The merge reads trace order off the run table, so ``replay_trace``
rejects a table whose runs do not tile the trace in order, before any
cache is walked.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.memory.hierarchy import OP_DENSE, encode_op
from repro.memory.replay_array import _merge_runs

from tests.test_replay_epoch_properties import (
    NUM_PES,
    full_state,
    make_system,
    tiny_config,
)
from tests.walks import WALKS, kernels

UNITS = 4
# What one trace position triggers at a level: nothing, a fill, a dirty
# victim, or a victim and then its own fill (one trigger, two events).
KINDS = ("none", "fill", "victim", "both")


def unit_events(runs, kinds, silent):
    """Each unit's level output, in trigger order with victims before
    fills: position ``i`` triggers ``kinds[i]``, and units in
    ``silent`` emit nothing (some of them as an explicit empty part)."""
    raw = {}
    for u, lo, hi in runs:
        if u in silent:
            continue
        out = raw.setdefault(u, ([], [], []))
        for pos in range(lo, hi):
            kind = kinds[pos]
            if kind in ("victim", "both"):
                out[0].append(10_000 + pos)
                out[1].append(True)
                out[2].append(pos)
            if kind in ("fill", "both"):
                out[0].append(pos)
                out[1].append(False)
                out[2].append(pos)
    parts = {
        u: (
            np.array(lines, dtype=np.int64),
            np.array(writes, dtype=bool),
            np.array(trig, dtype=np.int32),
        )
        for u, (lines, writes, trig) in raw.items()
    }
    for u in sorted(silent)[::2]:
        parts[u] = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
            np.empty(0, dtype=np.int32),
        )
    return parts


def sort_merge(parts):
    """The reference: every part's events, stably sorted by trigger."""
    cat = [np.concatenate([p[k] for p in parts.values()]) for k in range(3)]
    order = np.argsort(cat[2], kind="stable")
    return tuple(a[order] for a in cat)


@st.composite
def merge_cases(draw):
    """A run table tiling ``[0, n)`` with repeated and interleaved units
    and empty runs, what each position triggers, and silent units."""
    runs, lo = [], 0
    for u, k in draw(st.lists(
        st.tuples(st.integers(0, UNITS - 1), st.integers(0, 6)),
        min_size=1, max_size=24,
    )):
        runs.append((u, lo, lo + k))
        lo += k
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=lo, max_size=lo))
    silent = draw(st.sets(st.integers(0, UNITS - 1), max_size=UNITS - 1))
    return runs, kinds, silent


@given(merge_cases())
@settings(max_examples=300, deadline=None)
# Interleaved units of one group (A, B, A, B), consecutive runs of one
# unit, a run that triggers nothing, a silent unit, and a victim and a
# fill on one trigger.
@example((
    [(0, 0, 2), (1, 2, 4), (0, 4, 6), (1, 6, 8), (1, 8, 9), (2, 9, 11),
     (0, 11, 13), (3, 13, 14)],
    ["both", "fill", "victim", "none", "fill", "both", "fill", "fill",
     "victim", "fill", "both", "none", "none", "fill"],
    {2},
))
def test_run_merge_equals_stable_sort_by_trigger(case):
    runs, kinds, silent = case
    parts = unit_events(runs, kinds, silent)
    got = _merge_runs(parts, runs)
    if not any(p[0].shape[0] for p in parts.values()):
        assert all(a.shape[0] == 0 for a in got)
        return
    for g, w in zip(got, sort_merge(parts)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


# -- the run-table check ----------------------------------------------------

N = 40
BAD_TABLES = {
    "gap": [(0, 0, 10), (1, 12, N)],
    "overlap": [(0, 0, 12), (1, 10, N)],
    "out_of_order": [(1, 20, N), (0, 0, 20)],
    "short_of_n": [(0, 0, 10), (5, 10, N - 1)],
    "bad_pe": [(0, 0, 10), (NUM_PES, 10, N)],
}


def warm_system():
    """A tiny array-replay system after one valid epoch."""
    ms = make_system(dataclasses.replace(tiny_config(), replay="array"))
    rng = np.random.default_rng(5)
    write = encode_op(OP_DENSE, True, 1)
    ms.replay_epoch([
        (pe, rng.integers(0, 256, size=30), np.full(30, write))
        for pe in (0, 4, 1, 0)
    ])
    return ms


def epoch_trace():
    lines = np.random.default_rng(9).integers(0, 512, size=N)
    return lines, np.full(N, encode_op(OP_DENSE, True, 2))


@pytest.mark.parametrize("shape", sorted(BAD_TABLES))
def test_run_table_rejected_before_any_walk(shape):
    ms = warm_system()
    before = full_state(ms)
    lines, ops = epoch_trace()
    with pytest.raises(ValueError):
        ms.replay_trace(BAD_TABLES[shape], lines, ops)
    assert full_state(ms) == before


def test_single_pe_outside_system_rejected():
    ms = warm_system()
    before = full_state(ms)
    lines, ops = epoch_trace()
    with pytest.raises(ValueError):
        ms.replay_trace(-1, lines, ops)
    assert full_state(ms) == before


@pytest.mark.parametrize("walk", WALKS)
def test_empty_and_repeated_runs_allowed(walk):
    # Empty runs anywhere and consecutive runs of one PE replay like the
    # same accesses as one run per PE stretch, run by run.
    lines, ops = epoch_trace()
    table = [(0, 0, 0), (3, 0, 10), (3, 10, 15), (6, 15, 15), (6, 15, 30),
             (3, 30, N), (1, N, N)]
    got, ref = warm_system(), warm_system()
    with kernels(walk):
        levels = got.replay_trace(table, lines, ops)
    want = np.concatenate([
        ref.replay_trace_scalar(p, lines[lo:hi], ops[lo:hi])
        for p, lo, hi in table
    ])
    assert np.array_equal(levels, want)
    assert full_state(got) == full_state(ref)
