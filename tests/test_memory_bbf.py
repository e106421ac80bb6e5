"""Unit tests for the Bypass Buffer and its victim cache."""

import pytest

from repro.config import CacheConfig
from repro.memory.bbf import BypassBuffer


def make_bbf(entries=4) -> BypassBuffer:
    return BypassBuffer(
        entries, CacheConfig(size_bytes=1024, associativity=2)
    )


class TestStreamBuffer:
    def test_requires_capacity(self):
        with pytest.raises(ValueError):
            make_bbf(entries=0)

    def test_sequential_stream_fetches_each_line_once(self):
        bbf = make_bbf()
        for line in range(100):
            assert not bbf.stream.access(line)[0]
        assert bbf.stream.misses == 100
        assert bbf.stream.hits == 0

    def test_repeated_line_within_window_hits(self):
        bbf = make_bbf(entries=4)
        bbf.stream.access(0)
        assert bbf.stream.access(0)[0]
        assert bbf.stream.hits == 1

    def test_lru_window(self):
        bbf = make_bbf(entries=2)
        bbf.stream.access(0)
        bbf.stream.access(1)
        bbf.stream.access(2)  # evicts 0
        assert not bbf.stream.access(0)[0]

    def test_dirty_stream_eviction_counts_writeback(self):
        bbf = make_bbf(entries=1)
        bbf.stream.access(0, is_write=True)
        bbf.stream.access(1)
        assert bbf.stream.writebacks == 1

    def test_occupancy_bounded(self):
        bbf = make_bbf(entries=3)
        for line in range(10):
            bbf.stream.access(line)
        assert bbf.stream.occupancy() <= 3


class TestVictimCache:
    def test_victim_reuse(self):
        bbf = make_bbf()
        hit, _ = bbf.victim.access(7)
        assert not hit
        hit, _ = bbf.victim.access(7)
        assert hit

    def test_victim_spill_to_dram(self):
        """Overflowing the victim cache with dirty lines spills to main
        memory — the mechanism behind the KRO bypass outlier (Table 6)."""
        bbf = make_bbf()
        capacity = bbf.victim.num_sets * bbf.victim.ways
        spills = 0
        for line in range(capacity * 3):
            _, evicted = bbf.victim.access(line, is_write=True)
            if evicted is not None:
                spills += 1
        assert spills > 0

    def test_flush_covers_both_structures(self):
        bbf = make_bbf()
        bbf.stream.access(0, is_write=True)
        bbf.victim.access(1, is_write=True)
        assert bbf.flush() == 2
        assert bbf.stream.occupancy() == 0
        assert not bbf.victim.probe(1)

    def test_reset_stats(self):
        bbf = make_bbf()
        bbf.stream.access(0)
        bbf.victim.access(1)
        bbf.reset_stats()
        assert bbf.stream.hits == bbf.stream.misses == 0
        assert bbf.victim.accesses == 0
