"""The array replay's run merge, its input checks and its error returns.

Between cache levels the compiled epoch replay merges per-unit event
streams (each PE's L1 events for its L2 group, each group's L2 events
for the LLC) back into trace order along the epoch's dispatch runs:
each run's slice of its unit's events, run after run.  That must be
what a stable sort by trigger gives, which is the order in which the
scalar oracle, replaying the runs one by one, reaches the shared L2s
and the LLC; so the merge is held to the oracle on run tables that
interleave the PEs of one group.

The merge reads trace order off the run table, so ``replay_trace``
rejects a table whose runs do not tile the trace in order, and a trace
the compiled call cannot take, before anything is replayed; a compiled
call that fails raises with every cache, counter and DRAM field as it
was.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import native
from repro.config import CacheConfig, scaled_config
from repro.memory.cache import Cache
from repro.memory.hierarchy import (
    OP_DENSE,
    OP_DENSE_BYPASS,
    OP_STREAM,
    MemorySystem,
    encode_op,
)

from tests.test_replay_epoch_properties import (
    NUM_PES,
    full_state,
    make_system,
    tiny_config,
)
from tests.walks import WALKS, kernels


def compiled_replay():
    """The compiled epoch replay, or a skip where it does not load."""
    replay = native.replay_epoch_kernel()
    if replay is None:
        pytest.skip("the compiled epoch replay does not load on this host")
    return replay


UNITS = (0, 1, 4, 5)
"""The PEs the merge cases dispatch to: two of each L2 group."""
FOOTPRINT = 96
"""Lines the accesses share, few enough that L1 victims and fills, L2
victims and fills, and LLC victims all occur."""


@st.composite
def merge_cases(draw):
    """A run table tiling ``[0, n)`` with repeated and interleaved units
    and empty runs, and each access's line and write flag."""
    runs, lo = [], 0
    for u, k in draw(st.lists(
        st.tuples(st.sampled_from(UNITS), st.integers(0, 12)),
        min_size=1, max_size=24,
    )):
        runs.append((u, lo, lo + k))
        lo += k
    # One integer per access: its line, times two, plus one if it writes.
    accesses = draw(st.lists(
        st.integers(0, 2 * FOOTPRINT - 1), min_size=lo, max_size=lo,
    ))
    return runs, [(a >> 1, bool(a & 1)) for a in accesses]


@given(merge_cases())
@settings(max_examples=300, deadline=None)
# Interleaved units of one group (A, B, A, B), consecutive runs of one
# unit, an empty run and a unit of the other group between them.
@example((
    [(0, 0, 4), (1, 4, 8), (0, 8, 12), (1, 12, 16), (1, 16, 18),
     (4, 18, 22), (0, 22, 22), (0, 22, 26), (5, 26, 28)],
    [(i * 7 % 40, i % 3 != 0) for i in range(28)],
))
def test_run_merge_equals_stable_sort_by_trigger(case):
    runs, accesses = case
    lines = np.array([line for line, _ in accesses], dtype=np.int64)
    ops = np.array(
        [encode_op(OP_DENSE, write, 1) for _, write in accesses],
        dtype=np.int64,
    )
    got, ref = warm_system(), warm_system()
    levels = got.replay_trace(runs, lines, ops)
    want = [
        ref.replay_trace_scalar(p, lines[lo:hi], ops[lo:hi])
        for p, lo, hi in runs
    ]
    assert np.array_equal(levels, np.concatenate(want))
    assert full_state(got) == full_state(ref)


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


def snapshot(ms):
    """Everything a replay may write: each cache's ``state_dict()``
    (residents and counters), the DRAM counters, the region traffic and
    the collected stats."""
    return ms.state_dict(), full_state(ms)


@pytest.mark.parametrize("shape", sorted(BAD_TABLES))
def test_run_table_rejected_before_any_walk(shape):
    ms = warm_system()
    before = snapshot(ms)
    lines, ops = epoch_trace()
    with pytest.raises(ValueError):
        ms.replay_trace(BAD_TABLES[shape], lines, ops)
    assert snapshot(ms) == before


def test_single_pe_outside_system_rejected():
    ms = warm_system()
    before = snapshot(ms)
    lines, ops = epoch_trace()
    with pytest.raises(ValueError):
        ms.replay_trace(-1, lines, ops)
    assert snapshot(ms) == before


def _corrupt_line(lines, ops):
    lines = lines.copy()
    lines[N - 1] = -3
    return lines, ops


def _corrupt_op(value):
    def corrupt(lines, ops):
        ops = ops.copy()
        ops[N // 2] = value
        return lines, ops
    return corrupt


BAD_TRACES = {
    "negative_line": (_corrupt_line, ValueError),
    "negative_op": (_corrupt_op(-1), ValueError),
    "no_path": (_corrupt_op(3), ValueError),
    "region_outside_table": (
        _corrupt_op(encode_op(OP_STREAM, False, 4)), ValueError,
    ),
    "float_lines": (lambda l, o: (l.astype(np.float64), o), TypeError),
    "bool_ops": (lambda l, o: (l, o.astype(bool)), TypeError),
    "ops_short": (lambda l, o: (l, o[:-1]), ValueError),
}


@pytest.mark.parametrize("case", sorted(BAD_TRACES))
@pytest.mark.parametrize("walk", WALKS)
def test_bad_trace_rejected_before_any_walk(case, walk):
    """A trace the compiled call cannot take is refused before the
    compiled call or the oracle behind it replays any access."""
    ms = warm_system()
    before = snapshot(ms)
    corrupt, error = BAD_TRACES[case]
    lines, ops = corrupt(*epoch_trace())
    with kernels(walk), pytest.raises(error):
        ms.replay_trace([(0, 0, 20), (4, 20, N)], lines, ops)
    assert snapshot(ms) == before


class _Unreadable(dict):
    """A resident dict whose dirty bits cannot be read."""

    def values(self):
        raise RuntimeError("unreadable resident set")


def test_failed_compiled_call_changes_nothing():
    """The C entry's error returns raise before any cache, counter or
    DRAM field is written, although the walks before the failing one
    (the STLBs, then the L1s) have finished: a resident outside its set
    (planted in an L1 the epoch walks) and a resident set the binding
    cannot read (in an L2 the epoch walks)."""
    compiled_replay()
    lines, ops = epoch_trace()
    ops[::3] = encode_op(OP_DENSE_BYPASS, True, 1)
    ops[1::3] = encode_op(OP_STREAM, True, 3)
    table = [(0, 0, 20), (4, 20, N)]

    ms = warm_system()
    ms.l1s[4]._sets[1] = {2: True}  # line 2 lives in set 2 of 4
    before = snapshot(ms)
    with pytest.raises(ValueError, match="outside its set"):
        ms.replay_trace(table, lines, ops)
    assert snapshot(ms) == before

    ms = warm_system()
    l2 = ms.l2s[1]
    l2._sets = [_Unreadable(d) for d in l2._sets]
    before = snapshot(ms)
    with pytest.raises(RuntimeError, match="unreadable"):
        ms.replay_trace(table, lines, ops)
    assert snapshot(ms) == before


class _Sets(list):
    """The resident dicts of an empty cache with ``num_sets`` sets,
    without a list that long."""

    def __init__(self, num_sets):
        super().__init__()
        self.num_sets = num_sets

    def __len__(self):
        return self.num_sets


def one_pe_system():
    """A one-PE array-replay system whose L1, victim cache, stream
    buffer, L2, STLB and LLC are all 4 sets of 2 ways; L1 set 0 holds
    a clean line 4 and a dirty line 12."""
    ms = MemorySystem(dataclasses.replace(scaled_config(1), replay="array"))
    geom = CacheConfig(size_bytes=4 * 2 * 64, associativity=2)
    ms.l1s[0], ms.l2s[0], ms.stlbs[0], ms.llc = (
        Cache(geom, name) for name in ("l1", "l2", "stlb", "llc")
    )
    ms.bbfs[0].victim = Cache(geom, "victim")
    ms.bbfs[0].stream = Cache(geom, "stream")
    ms.l1s[0]._sets[0] = {4: False, 12: True}
    return ms


@pytest.mark.parametrize("error", ["alloc", "callback", "foreign_set"])
def test_compiled_entry_error_returns(error):
    """Each error return of ``repro_replay_epoch``, forced through its
    binding by a geometry or a resident set: an L1 with more sets than
    any allocation holds, a resident set the binding cannot read, and
    a resident in a set its line does not map to.  Every structure's
    resident dicts are left as they were."""
    lines = np.array([0, 8, 1, 0], np.int64)
    ops = np.full(4, encode_op(OP_DENSE, True, 1), np.int64)
    runs = np.array([[0, 0, 4]], np.int64)
    ms = one_pe_system()
    l1 = ms.l1s[0]
    if error == "alloc":
        l1.num_sets = 2**61
        l1._sets = _Sets(2**61)
    elif error == "callback":
        l1._sets[0] = _Unreadable(l1._sets[0])
    else:
        l1._sets[1] = {5: True, 3: False}  # 3 lives in set 3
    kept = [list(map(dict, c._sets)) for _, c in native.replay_structures(ms)]
    expected = {
        "alloc": (MemoryError, "allocate"),
        "callback": (RuntimeError, "unreadable"),
        "foreign_set": (ValueError, "outside its set"),
    }[error]
    replay = compiled_replay()
    with pytest.raises(expected[0], match=expected[1]):
        replay(ms, lines, ops, runs, 4)
    assert [
        list(map(dict, c._sets)) for _, c in native.replay_structures(ms)
    ] == kept


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
