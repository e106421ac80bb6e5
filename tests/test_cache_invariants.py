"""Cache-layer invariants, checked against BOTH replay implementations.

A parametrized "driver" fixture feeds each randomized trace through
either the scalar ``Cache.access`` loop or one batched call of the
array backend's epoch replay (``tests.walks.epoch_walk``: the compiled
call where it loads, with the cache as a one-PE system's victim cache),
then asserts the structural invariants that every set-associative
write-back cache must satisfy:

* ``hits + misses == accesses`` (and ``fills == misses``);
* ``occupancy() <= num_sets * ways`` at all times;
* ``flush()`` leaves zero dirty lines, zero occupancy, and returns
  exactly the number of dirty lines it wrote back;
* ``probe()`` / ``invalidate()`` never perturb LRU order or counters.

The second half pins the §7.D epoch-boundary flush accounting:
flush-path writebacks must flow through ``Cache.writebacks``,
``Cache.flush_writebacks`` and ``AccessStats.flushed_dirty_lines``
consistently (regression for the flush-count propagation fix).
"""

from __future__ import annotations

import numpy as np
import pytest

import dataclasses

from repro.config import CacheConfig, scaled_config
from repro.memory.cache import Cache
from repro.memory.hierarchy import (
    OP_DENSE,
    OP_DENSE_BYPASS,
    OP_STREAM,
    MemorySystem,
    encode_op,
)

from tests.walks import epoch_walk

GEOM = CacheConfig(size_bytes=8 * 1024, associativity=4)  # 32 sets


def scalar_driver(cache: Cache, lines, writes) -> None:
    for line, w in zip(lines.tolist(), writes.tolist()):
        cache.access(line, w)


def batched_driver(cache: Cache, lines, writes) -> None:
    epoch_walk(cache, lines, writes)


@pytest.fixture(params=["scalar", "batched"])
def driver(request):
    return scalar_driver if request.param == "scalar" else batched_driver


def make_trace(seed, n=5000, num_lines=1 << 12, p_write=0.35):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, num_lines, size=n),
        rng.random(n) < p_write,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_accounting_identity(driver, seed):
    cache = Cache(GEOM)
    lines, writes = make_trace(seed)
    driver(cache, lines, writes)
    assert cache.hits + cache.misses == cache.accesses == lines.shape[0]
    assert cache.fills == cache.misses
    assert 0.0 <= cache.hit_rate <= 1.0


@pytest.mark.parametrize("seed", [3, 4])
def test_capacity_never_exceeded(driver, seed):
    cache = Cache(GEOM)
    lines, writes = make_trace(seed, num_lines=1 << 15)
    capacity = cache.num_sets * cache.ways
    for lo in range(0, lines.shape[0], 250):
        driver(cache, lines[lo:lo + 250], writes[lo:lo + 250])
        assert cache.occupancy() <= capacity
        assert cache.dirty_lines() <= cache.occupancy()
    # A footprint much larger than capacity must fill it completely.
    assert cache.occupancy() == capacity


def test_flush_returns_exact_dirty_count(driver):
    cache = Cache(GEOM)
    lines, writes = make_trace(7, num_lines=512)
    driver(cache, lines, writes)
    dirty_before = cache.dirty_lines()
    demand_wb = cache.writebacks
    assert dirty_before > 0
    flushed = cache.flush()
    assert flushed == dirty_before
    assert cache.dirty_lines() == 0
    assert cache.occupancy() == 0
    assert cache.flush_writebacks == flushed
    assert cache.writebacks == demand_wb + flushed
    # Double flush: nothing left to write back.
    assert cache.flush() == 0
    assert cache.flush_writebacks == flushed


def test_probe_and_invalidate_do_not_perturb(driver):
    cache = Cache(GEOM)
    lines, writes = make_trace(11, num_lines=256)
    driver(cache, lines, writes)
    snap_counters = (cache.hits, cache.misses, cache.writebacks, cache.fills)
    snap_state = [list(s.items()) for s in cache._sets]

    for line in range(0, 1 << 10, 7):
        cache.probe(line)
    assert (cache.hits, cache.misses, cache.writebacks, cache.fills) == snap_counters
    assert [list(s.items()) for s in cache._sets] == snap_state

    # invalidate() drops lines but never touches the access counters,
    # and removal preserves the relative LRU order of the survivors.
    victims = [s_items[0][0] for s_items in snap_state if s_items]
    for line in victims:
        cache.invalidate(line)
    assert (cache.hits, cache.misses, cache.writebacks, cache.fills) == snap_counters
    expected = [
        [item for item in s_items if item[0] not in victims]
        for s_items in snap_state
    ]
    assert [list(s.items()) for s in cache._sets] == expected


def test_invalidate_reports_dirtiness():
    cache = Cache(GEOM)
    cache.access(5, is_write=True)
    cache.access(6, is_write=False)
    assert cache.invalidate(5) is True
    assert cache.invalidate(6) is False
    assert cache.invalidate(12345) is False


# ---------------------------------------------------------------------------
# §7.D flush accounting through the full hierarchy (regression)
# ---------------------------------------------------------------------------


def dirty_everything(ms: MemorySystem, replay: str):
    """Spread dirty lines over L1s, L2 (via spills), BBFs and victims:
    per access (``scalar``) or as one batched trace per PE through the
    array backend (``batched``)."""
    rng = np.random.default_rng(13)
    for pe in range(len(ms.l1s)):
        lines = rng.integers(0, 1 << 12, size=1500)
        if replay == "batched":
            trace = np.concatenate(
                [lines, lines[:200], np.arange(pe * 100, pe * 100 + 50)]
            )
            ops = np.array(
                [encode_op(OP_DENSE, True, 1)] * 1500
                + [encode_op(OP_DENSE_BYPASS, True, 1)] * 200
                + [encode_op(OP_STREAM, True, 3)] * 50,
                dtype=np.int64,
            )
            ms.replay_trace(pe, trace, ops)
        else:
            for line in lines.tolist():
                ms.dense_access(pe, line, is_write=True, region="rmatrix")
            for line in lines[:200].tolist():
                ms.dense_access(
                    pe, line, is_write=True, bypass=True, region="rmatrix"
                )
            for line in range(pe * 100, pe * 100 + 50):
                ms.stream_access(pe, line, is_write=True, region="sparse_out")


def replay_system(replay: str) -> MemorySystem:
    return MemorySystem(dataclasses.replace(
        scaled_config(4, cache_shrink=8),
        replay="array" if replay == "batched" else "scalar",
    ))


@pytest.mark.parametrize("replay", ["scalar", "batched"])
def test_flush_all_propagates_into_access_stats(replay):
    ms = replay_system(replay)
    dirty_everything(ms, replay)
    assert ms.collect_stats().flushed_dirty_lines == 0

    total_dirty = (
        sum(c.dirty_lines() for c in ms.l1s)
        + sum(c.dirty_lines() for c in ms.l2s)
        + ms.llc.dirty_lines()
        + sum(b.stream.dirty_lines() for b in ms.bbfs)
        + sum(b.victim.dirty_lines() for b in ms.bbfs)
    )
    assert total_dirty > 0

    flushed = ms.flush_all()
    assert flushed == total_dirty

    stats = ms.collect_stats()
    assert stats.flushed_dirty_lines == flushed
    # Demand writebacks and flush writebacks both live in the per-level
    # writeback counters; the flush share is recoverable exactly.
    total_wb = (
        sum(c.writebacks for c in ms.l1s + ms.l2s)
        + ms.llc.writebacks
        + sum(b.stream.writebacks + b.victim.writebacks for b in ms.bbfs)
    )
    total_flush_wb = (
        sum(c.flush_writebacks for c in ms.l1s + ms.l2s)
        + ms.llc.flush_writebacks
        + sum(
            b.stream.flush_writebacks + b.victim.flush_writebacks
            for b in ms.bbfs
        )
    )
    assert total_flush_wb == flushed
    assert total_wb >= total_flush_wb

    # Nothing dirty remains anywhere; a second flush is a no-op.
    assert ms.flush_all() == 0
    assert ms.collect_stats().flushed_dirty_lines == flushed


def test_stats_merge_carries_flushed_dirty_lines():
    ms = replay_system("batched")
    dirty_everything(ms, "batched")
    ms.flush_all()
    stats = ms.collect_stats()
    merged = stats.merged(stats)
    assert merged.flushed_dirty_lines == 2 * stats.flushed_dirty_lines
