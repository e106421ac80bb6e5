"""The compiled replay's resident state: its lifetime and its hand-offs.

Under ``replay="array"`` with the library loaded, each structure's
residents live in a C state (``repro.native.ReplayState``) from one
epoch to the next, and ``Cache._sets`` makes dicts of them only when
read.  These tests hold that arrangement to three things: the states
are freed with their memory system, a forked child's replay leaves its
parent's states alone, and reading the dicts mid-run, changing them
through ``Cache.access`` and replaying on still gives the oracle's
result.  The per-PE tallies the compiled call folds are held to the
reference fold run by run, and its trace check to the first failing
run's refusal, with nothing changed.  Without the library the same
tests hold the Python paths (the oracle run by run,
``native._trace_refusal`` and ``level_tally``) to the same results.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.config import scaled_config
from repro.core.accelerator import SpadeSystem
from repro.memory.hierarchy import (
    OP_DENSE,
    OP_DENSE_BYPASS,
    OP_STREAM,
    SPARSE_REGION,
    TRACE_REGIONS,
    MemorySystem,
    ServiceLevel,
    encode_op,
    level_tally,
)
from repro.sparse.generators import rmat_graph

from tests.test_replay_epoch_properties import (
    NUM_PES,
    epoch_runs,
    full_state,
    make_system,
    tiny_config,
)
from tests.walks import WALKS, kernels


def require_library() -> None:
    if native.replay_epoch_kernel() is None:
        pytest.skip("the compiled epoch replay does not load on this host")


def epoch(seed: int, n_runs: int = 12):
    """A seeded epoch of runs ``(pe, lines, ops)`` on every path, with
    sparse reads and writes among them."""
    rng = np.random.default_rng(seed)
    codes = np.array([
        encode_op(OP_DENSE, False, 1), encode_op(OP_DENSE, True, 1),
        encode_op(OP_DENSE, False, 2), encode_op(OP_DENSE, False, 0),
        encode_op(OP_DENSE_BYPASS, True, 1),
        encode_op(OP_DENSE_BYPASS, False, 2),
        encode_op(OP_STREAM, False, SPARSE_REGION),
        encode_op(OP_STREAM, True, 3), encode_op(OP_STREAM, True, 0),
    ], dtype=np.int64)
    runs = []
    for _ in range(n_runs):
        n = int(rng.integers(1, 80))
        runs.append((
            int(rng.integers(0, NUM_PES)),
            rng.integers(0, 600, size=n).astype(np.int64),
            codes[rng.integers(0, len(codes), size=n)],
        ))
    return runs


def array_system() -> MemorySystem:
    return make_system(dataclasses.replace(tiny_config(), replay="array"))


def states(ms: MemorySystem) -> list:
    return [c._state for _, c in native.replay_structures(ms)]


def test_states_are_freed_with_their_system():
    """One state per structure once an epoch has replayed, none left
    once the system is gone; and after 50 kernel runs and a collection
    the process holds as many states as before them."""
    require_library()
    gc.collect()
    start = native.live_states()
    ms = array_system()
    assert native.live_states() == start  # nothing made before a replay
    ms.replay_epoch(epoch(1))
    assert native.live_states() == start + len(states(ms))
    del ms
    gc.collect()
    assert native.live_states() == start

    a = rmat_graph(7, edge_factor=4, seed=2)
    b = np.random.default_rng(0).random((a.num_cols, 8), dtype=np.float32)
    system = SpadeSystem(scaled_config(2))
    for _ in range(50):
        system.spmm(a, b)
    gc.collect()
    assert native.live_states() == start


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_replay_leaves_the_parent_alone():
    """A child forked from a warm system replays an epoch on its copy of
    the states; the parent's states, dicts and counters are unchanged,
    and the parent's own replay of that epoch matches the child's."""
    require_library()
    ms = array_system()
    ms.replay_epoch(epoch(2))
    assert all(s is not None for s in states(ms))
    before = pickle.dumps(ms.state_dict())
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: replay, report, leave without cleanup
        code = 1
        try:
            ms.replay_epoch(epoch(3))
            os.write(write, pickle.dumps(ms.state_dict()))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        child = fh.read()
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert pickle.dumps(ms.state_dict()) == before
    ms.replay_epoch(epoch(3))
    assert pickle.dumps(ms.state_dict()) == child != before


@pytest.mark.parametrize("walk", WALKS)
def test_sets_read_mid_run_then_changed_replay_like_the_oracle(walk):
    """Reading ``_sets`` mid-run gives the residents as dicts and drops
    the compiled state; changing a set through ``Cache.access`` and
    replaying the next epoch takes the dicts back into a state and
    matches the oracle, which saw the same accesses."""
    ref = make_system(dataclasses.replace(tiny_config(), replay="scalar"))
    got = array_system()
    with kernels(walk):
        compiled = native.replay_epoch_kernel() is not None
        for ms in (ref, got):
            ms.replay_epoch(epoch(4))
        assert full_state(got) == full_state(ref)
        snapshot = got.state_dict()  # a snapshot keeps the states
        assert all((s is not None) == compiled for s in states(got))
        assert snapshot == ref.state_dict()

        for ms in (ref, got):
            sets = ms.l2s[1]._sets
            assert sum(map(len, sets)) > 0
            ms.l2s[1].access(7, True)  # line 7 into set 7
            ms.l1s[5].access(3, False)
            ms.bbfs[2].stream.access(11, True)
        assert got.l2s[1]._state is None and got.l2s[1]._dicts is not None
        assert full_state(got) == full_state(ref)

        for seed in (5, 6):
            want = [ref.replay_trace_scalar(p, l, o) for p, l, o in epoch(seed)]
            levels = got.replay_epoch(epoch(seed))
            assert [lv.tolist() for lv in levels] == [w.tolist() for w in want]
            assert full_state(got) == full_state(ref)
        assert (got.l2s[1]._state is not None) == compiled
        assert ref.flush_all() == got.flush_all()
        assert full_state(got) == full_state(ref)


@pytest.mark.parametrize("walk", WALKS)
def test_epoch_tally_is_the_per_run_fold(walk):
    """``replay_epoch``'s per-PE tallies (folded inside the compiled
    replay call where the library loads) add up to :func:`level_tally`
    of each run's levels, and accumulate across calls."""
    ms = array_system()
    tally = np.zeros((NUM_PES, 3, len(ServiceLevel)), dtype=np.int64)
    want = np.zeros_like(tally)
    with kernels(walk):
        for seed in (7, 8):
            runs = epoch(seed, n_runs=20)
            levels = ms.replay_epoch(runs, tally=tally)
            for (pe, _, ops), lv in zip(runs, levels):
                want[pe] += level_tally(lv, ops)
    assert want[:, 2].sum() > 0 and want[:, 1].sum() > 0
    assert np.array_equal(tally, want)


@pytest.mark.parametrize("walk", WALKS)
@given(epochs=st.lists(epoch_runs(), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_fused_tally_is_level_tally_run_by_run(walk, epochs):
    """Over random epochs (runs of any PE, every path, every region,
    repeats across runs) the tally the replay call adds is, after each
    epoch, :func:`level_tally` of each run's levels summed per PE."""
    ms = array_system()
    tally = np.zeros((NUM_PES, 3, len(ServiceLevel)), dtype=np.int64)
    want = np.zeros_like(tally)
    with kernels(walk):
        for runs in epochs:
            levels = ms.replay_epoch(runs, tally=tally)
            for (pe, _, ops), lv in zip(runs, levels):
                want[pe] += level_tally(lv, ops)
            assert np.array_equal(tally, want)


N_REGIONS = len(TRACE_REGIONS)


@st.composite
def refused_epochs(draw):
    """An epoch with faults planted at distinct places, and the refusal
    code it must raise: the first faulty run's lowest code, 1 a
    negative line, 2 a negative op, 3 an op on no path, 4 a region id
    not below ``N_REGIONS``."""
    runs = [(pe, lines.copy(), ops.copy())
            for pe, lines, ops in draw(epoch_runs())]
    faults = draw(st.lists(
        st.tuples(st.integers(0, len(runs) - 1), st.integers(1, 4),
                  st.integers(0, 2**20), st.integers(0, 2**40)),
        min_size=1, max_size=6,
    ))
    planted, codes = set(), {}
    for k, code, at, x in faults:
        _, lines, ops = runs[k]
        j = at % lines.shape[0]
        if (k, j, code == 1) in planted:
            continue
        planted.add((k, j, code == 1))
        if code == 1:
            lines[j] = -1 - x
        elif code == 2:
            ops[j] = -1 - x
        elif code == 3:
            ops[j] |= 3
        else:
            ops[j] = encode_op(x % 3, bool(x & 8), N_REGIONS + x % 1000)
        codes.setdefault(k, set()).add(code)
    return runs, min(codes[min(codes)])


@pytest.mark.parametrize("walk", WALKS)
@given(case=refused_epochs())
@settings(max_examples=60, deadline=None)
def test_refused_epoch_names_the_first_failing_run_and_changes_nothing(
    walk, case
):
    """A bad line or op anywhere raises the first failing run's refusal,
    by the precedence within a run, before anything replays: every
    structure's residents and counters, the DRAM traffic and the tally
    are as they were."""
    runs, code = case
    ms = array_system()
    tally = np.zeros((NUM_PES, 3, len(ServiceLevel)), dtype=np.int64)
    with kernels(walk):
        ms.replay_epoch(epoch(1), tally=tally)
        before = (pickle.dumps(ms.state_dict()), tally.tobytes())
        message = native._TRACE_REFUSALS[code].format(N_REGIONS)
        with pytest.raises(ValueError, match=re.escape(message)):
            ms.replay_epoch(runs, tally=tally)
        assert (pickle.dumps(ms.state_dict()), tally.tobytes()) == before



@pytest.mark.parametrize("walk", WALKS)
def test_tally_of_the_wrong_form_is_refused_before_the_replay(walk):
    """A tally that is not a writeable int64 (PEs, 3, levels) array is
    refused before anything replays."""
    ms = array_system()
    before = pickle.dumps(ms.state_dict())
    good = np.zeros((NUM_PES, 3, len(ServiceLevel)), dtype=np.int64)
    read_only = good.copy()
    read_only.flags.writeable = False
    with kernels(walk):
        for tally, error in (
            (good[:-1], ValueError), (good.astype(np.int32), TypeError),
            (read_only, ValueError),
        ):
            with pytest.raises(error, match="tally"):
                ms.replay_epoch(epoch(1), tally=tally)
            assert pickle.dumps(ms.state_dict()) == before
