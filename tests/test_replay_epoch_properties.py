"""Property tests (hypothesis) for epoch-grain replay.

``MemorySystem.replay_epoch`` hands a whole epoch's dispatch runs to the
array backend in one call; the compiled epoch replay then walks each
PE's L1 once over all its runs, each L2 group once over its PEs' merged
L1 events, and the LLC once; likewise each group's STLB once over its
pages and each PE's BBF stream buffer and victim cache once over its
accesses on those paths.  It must be indistinguishable from replaying
the runs one by one through the scalar oracle: per-run service levels,
every cache counter, the ordered (line, dirty) state of every cache,
STLB and BBF state, and DRAM traffic per region.  ``forced`` runs the
same epochs with the library refused, where the backend replays each
run through the oracle itself; both are held to the per-run oracle.
The scalar backend still gets one call per run, with one PE.

(Test names keep the "per-run batched" wording of the per-run backend
the oracle replaced as the reference, so the suite's ids stay stable.)

The system is 8 PEs in 2 L2 groups with tiny caches, 4-entry stream
buffers and 4-entry STLBs, so short random epochs already evict dirty
L1 lines through L2 and LLC into DRAM, evict dirty stream-buffer lines,
and touch more pages than an STLB holds.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, scaled_config
from repro.memory.tlb import LINES_PER_PAGE, STLB
from repro.memory.hierarchy import (
    OP_DENSE,
    OP_DENSE_BYPASS,
    OP_PATH_MASK,
    OP_STREAM,
    TRACE_REGIONS,
    MemorySystem,
    encode_op,
)

from tests.test_memory_batched_parity import CACHE_COUNTERS, counters, system_state
from tests.walks import kernels

NUM_PES = 8
STLB_ENTRIES = 4


def _tiny(sets: int, ways: int) -> CacheConfig:
    return CacheConfig(size_bytes=64 * sets * ways, associativity=ways)


def tiny_config():
    cfg = scaled_config(NUM_PES, cache_shrink=8)
    cfg = dataclasses.replace(
        cfg,
        pe=dataclasses.replace(
            cfg.pe, l1d=_tiny(4, 2), bbf_entries=4, victim_cache=_tiny(2, 2)
        ),
        memory=dataclasses.replace(
            cfg.memory, l2=_tiny(8, 4), llc_slice=_tiny(16, 4),
            num_llc_slices=1,
        ),
    )
    assert cfg.memory.pes_per_l2 == 4  # two L2 groups
    return cfg


def make_system(cfg) -> MemorySystem:
    """A memory system whose STLBs hold only ``STLB_ENTRIES`` pages."""
    ms = MemorySystem(cfg)
    ms.stlbs = [
        STLB(STLB_ENTRIES, name=f"stlb[{g}]") for g in range(ms.num_groups)
    ]
    return ms


def full_state(ms: MemorySystem):
    caches = (
        ms.l1s + ms.l2s + [ms.llc] + ms.stlbs
        + [b.victim for b in ms.bbfs] + [b.stream for b in ms.bbfs]
    )
    return (
        system_state(ms),
        [counters(c, CACHE_COUNTERS) for c in caches],
        (ms.dram.reads, ms.dram.writes),
        dict(ms._region_traffic),
        dataclasses.asdict(ms.collect_stats()),
    )


ops_st = st.tuples(
    st.sampled_from([OP_DENSE, OP_DENSE, OP_DENSE, OP_DENSE_BYPASS, OP_STREAM]),
    st.booleans(),
    st.integers(0, len(TRACE_REGIONS) - 1),
)


def interleaved_streams(start: int, n: int):
    """The SDDMM shape: a sparse-input read stream interleaved with an
    output write stream, each line-sequential, every line distinct."""
    lines, ops = [], []
    for i in range(n):
        lines += [start + i, start + 4096 + i]
        ops += [
            encode_op(OP_STREAM, False, 0), encode_op(OP_STREAM, True, 3)
        ]
    return lines, ops


@st.composite
def epoch_runs(draw):
    """Dispatch runs ``(pe, lines, ops)`` with consecutive same-PE runs,
    interleaved distinct streams, and lines repeated across run
    boundaries on every path mixed in.  The largest footprint spans 32
    pages, eight times what an STLB holds."""
    footprint = draw(st.sampled_from([12, 64, 512, 32 * LINES_PER_PAGE]))
    runs = []
    prev_pe, prev_line, prev_path = None, None, OP_DENSE
    for _ in range(draw(st.integers(1, 24))):
        if prev_pe is not None and draw(st.booleans()):
            pe = prev_pe  # consecutive runs of one PE
        else:
            pe = draw(st.integers(0, NUM_PES - 1))
        body = draw(st.lists(
            st.tuples(st.integers(0, footprint - 1), ops_st),
            min_size=1, max_size=40,
        ))
        lines = [line for line, _ in body]
        ops = [encode_op(p, w, r) for _, (p, w, r) in body]
        if draw(st.booleans()):
            s_lines, s_ops = interleaved_streams(
                draw(st.integers(0, footprint)), draw(st.integers(1, 12))
            )
            cut = draw(st.integers(0, len(lines)))
            lines[cut:cut] = s_lines
            ops[cut:cut] = s_ops
        if prev_line is not None and draw(st.booleans()):
            # The previous run's last line opens this run too, on the
            # same path.
            lines.insert(0, prev_line)
            ops.insert(0, encode_op(prev_path, draw(st.booleans()), 1))
        runs.append((
            pe, np.array(lines, dtype=np.int64), np.array(ops, dtype=np.int64)
        ))
        prev_pe, prev_line, prev_path = (
            pe, lines[-1], ops[-1] & OP_PATH_MASK
        )
    return runs


def check_epochs(epochs, forced: bool) -> MemorySystem:
    """Replay ``epochs`` whole-epoch through the array backend (with the
    compiled library refused when ``forced``) and run by run through the
    oracle."""
    cfg = tiny_config()
    ref = make_system(dataclasses.replace(cfg, replay="scalar"))
    got = make_system(dataclasses.replace(cfg, replay="array"))
    for runs in epochs:
        want = [ref.replay_trace_scalar(p, l, o) for p, l, o in runs]
        with kernels("python" if forced else "native"):
            levels = got.replay_epoch(runs)
        assert len(levels) == len(want)
        for w, g in zip(want, levels):
            assert np.array_equal(w, g)
        assert full_state(got) == full_state(ref)
    assert ref.flush_all() == got.flush_all()
    assert full_state(got) == full_state(ref)
    return got


@given(st.lists(epoch_runs(), min_size=1, max_size=2))
@settings(max_examples=60, deadline=None)
def test_replay_epoch_matches_per_run_batched_forced_array(epochs):
    check_epochs(epochs, forced=True)


@given(st.lists(epoch_runs(), min_size=1, max_size=2))
@settings(max_examples=30, deadline=None)
def test_replay_epoch_matches_per_run_batched_auto_dispatch(epochs):
    check_epochs(epochs, forced=False)


@pytest.mark.parametrize("forced", [True, False])
def test_dirty_l1_victims_cascade_to_dram(forced):
    # Write-heavy dense traffic over many lines on all 8 PEs: dirty L1
    # victims spill into L2, the L2's into the LLC, the LLC's to DRAM.
    rng = np.random.default_rng(7)
    runs = []
    for k in range(24):
        n = int(rng.integers(20, 300))
        lines = rng.integers(0, 2048, size=n)
        ops = np.where(
            rng.random(n) < 0.6,
            encode_op(OP_DENSE, True, 1),
            encode_op(OP_DENSE, False, 2),
        )
        runs.append((k % NUM_PES if k % 5 else (k - 1) % NUM_PES, lines, ops))
    got = check_epochs([runs[:12], runs[12:]], forced)
    assert got.dram.writes > 0
    assert sum(c.writebacks for c in got.l1s) > 0
    assert got.llc.writebacks > 0


@pytest.mark.parametrize("forced", [True, False])
def test_side_structures_evict_and_stay_exact(forced):
    # Every PE runs the SDDMM shape (interleaved distinct read/write
    # streams, far more lines than the 4-entry stream buffer holds, so
    # dirty output lines are evicted) plus write-heavy bypassed dense
    # traffic cycling through the victim cache, over pages cycling
    # through more than the 4-entry STLB holds; two epochs, so the
    # second starts warm.
    rng = np.random.default_rng(11)
    epochs = []
    for epoch in range(2):
        runs = []
        for k in range(16):
            pe = k % NUM_PES
            lines, ops = interleaved_streams(
                (epoch * 16 + k) * 300, int(rng.integers(40, 200))
            )
            n = int(rng.integers(20, 120))
            lines += (rng.integers(0, 24, size=n) * LINES_PER_PAGE).tolist()
            ops += np.where(
                rng.random(n) < 0.5,
                encode_op(OP_DENSE_BYPASS, True, 1),
                encode_op(OP_DENSE_BYPASS, False, 2),
            ).tolist()
            runs.append((
                pe, np.array(lines, dtype=np.int64),
                np.array(ops, dtype=np.int64),
            ))
        epochs.append(runs)
    got = check_epochs(epochs, forced)
    assert sum(b.stream.writebacks - b.stream.flush_writebacks
               for b in got.bbfs) > 0
    assert sum(b.victim.writebacks for b in got.bbfs) > 0
    assert got.dram.writes > 0
    # Capacity misses: more STLB misses than distinct pages touched.
    pages = {
        (pe // 4, page)
        for runs in epochs for pe, lines, _ in runs
        for page in (lines // LINES_PER_PAGE).tolist()
    }
    assert sum(t.misses for t in got.stlbs) > len(pages)


def test_backend_without_epoch_gets_one_call_per_run():
    """The scalar oracle replays an epoch one ``replay_trace`` call per
    run, each with one PE, in dispatch order."""
    cfg = dataclasses.replace(tiny_config(), replay="scalar")
    ms = MemorySystem(cfg)
    calls = []
    real = ms.replay_trace

    def spy(pe_id, lines, ops, region_names=TRACE_REGIONS):
        calls.append(pe_id)
        return real(pe_id, lines, ops, region_names)

    ms.replay_trace = spy
    rng = np.random.default_rng(3)
    runs = [
        (pe, rng.integers(0, 256, size=30),
         np.full(30, encode_op(OP_DENSE, True, 1)))
        for pe in (0, 0, 5, 2, 5)
    ]
    levels = ms.replay_epoch(runs)
    assert calls == [0, 0, 5, 2, 5]
    assert all(isinstance(pe, int) for pe in calls)
    ref = MemorySystem(dataclasses.replace(cfg, replay="array"))
    assert [lv.tolist() for lv in ref.replay_epoch(runs)] == [
        lv.tolist() for lv in levels
    ]
    assert full_state(ms) == full_state(ref)
