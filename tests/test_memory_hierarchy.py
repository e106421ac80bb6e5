"""Unit tests for address map, DRAM, TLB, stats, and the composed
memory hierarchy."""

import numpy as np
import pytest

from repro.config import scaled_config
from repro.memory.address import (
    AddressMap,
    PAGE_BYTES,
    line_of,
    lines_spanning,
    padded_row_bytes,
)
from repro.memory.dram import DRAMModel
from repro.memory.hierarchy import MemorySystem, ServiceLevel
from repro.memory.stats import AccessStats, LevelStats
from repro.memory.tlb import STLB, PAGE_WALK_LATENCY_NS


class TestAddressMath:
    def test_line_of(self):
        assert line_of(0) == 0
        assert line_of(63) == 0
        assert line_of(64) == 1

    def test_lines_spanning(self):
        assert list(lines_spanning(0, 64)) == [0]
        assert list(lines_spanning(32, 64)) == [0, 1]
        assert list(lines_spanning(0, 0)) == []

    def test_padded_row_bytes(self):
        assert padded_row_bytes(16) == 64   # exactly one line
        assert padded_row_bytes(17) == 128  # padded up
        assert padded_row_bytes(32) == 128


class TestAddressMap:
    def test_regions_page_aligned_disjoint(self):
        amap = AddressMap()
        r1 = amap.allocate("a", 100)
        r2 = amap.allocate("b", 5000)
        assert r1.base % PAGE_BYTES == 0
        assert r2.base % PAGE_BYTES == 0
        assert r2.base >= r1.base + 100
        assert r1.base > 0  # no region at address 0

    def test_duplicate_name_rejected(self):
        amap = AddressMap()
        amap.allocate("a", 10)
        with pytest.raises(ValueError, match="already allocated"):
            amap.allocate("a", 10)

    def test_region_of(self):
        amap = AddressMap()
        region = amap.allocate("a", 100)
        assert amap.region_of(region.base + 50).name == "a"
        with pytest.raises(KeyError):
            amap.region_of(region.base + 200)

    def test_dense_rows_line_aligned(self):
        amap = AddressMap()
        amap.allocate_dense("m", num_rows=10, dense_row_size=17)
        lines0 = amap.dense_row_lines("m", 0, 17)
        lines1 = amap.dense_row_lines("m", 1, 17)
        assert len(lines0) == 2  # 17 floats pad to 2 lines
        assert lines1[0] == lines0[-1] + 1  # rows contiguous

    def test_dense_row_base_lines_vectorised(self):
        amap = AddressMap()
        amap.allocate_dense("m", num_rows=10, dense_row_size=16)
        rows = np.array([0, 3, 7])
        bases = amap.dense_row_base_lines("m", rows, 16)
        for row, base in zip(rows, bases):
            assert base == amap.dense_row_lines("m", int(row), 16)[0]

    def test_stream_lines_bounds_checked(self):
        amap = AddressMap()
        amap.allocate("s", 1000)
        first, count = amap.stream_lines("s", 0, 1000)
        assert count == -(-1000 // 64)  # 16 lines cover 1000 bytes
        assert first == amap.regions["s"].base // 64
        with pytest.raises(ValueError, match="exceeds"):
            amap.stream_lines("s", 500, 600)


class TestDRAM:
    def test_traffic_accounting(self):
        dram = DRAMModel(peak_gbps=400, achievable_gbps=300, latency_ns=90)
        for _ in range(10):
            dram.read_line()
        for _ in range(5):
            dram.write_line()
        assert dram.accesses == 15
        assert dram.bytes_transferred == 15 * 64

    def test_service_time(self):
        dram = DRAMModel(peak_gbps=100, achievable_gbps=50, latency_ns=90)
        assert dram.service_time_ns(5000) == pytest.approx(100.0)

    def test_utilization(self):
        dram = DRAMModel(peak_gbps=100, achievable_gbps=50, latency_ns=90)
        for _ in range(100):
            dram.read_line()
        # 6400 bytes over 128 ns at 100 GB/s peak = 50% utilization.
        assert dram.utilization(128.0) == pytest.approx(0.5)
        assert dram.utilization(0.0) == 0.0


class TestSTLB:
    def test_same_page_hits(self):
        tlb = STLB(entries=4)
        assert not tlb.translate_line(0)
        assert tlb.translate_line(1)  # same 4 KB page
        assert tlb.miss_rate == pytest.approx(0.5)

    def test_capacity_eviction(self):
        tlb = STLB(entries=2)
        pages = [0, 64, 128]  # three distinct pages (64 lines/page)
        for p in pages:
            tlb.translate_line(p)
        assert not tlb.translate_line(0)  # evicted

    def test_walk_overhead(self):
        tlb = STLB(entries=4)
        tlb.translate_line(0)
        tlb.translate_line(64)
        assert tlb.walk_overhead_ns() == 2 * PAGE_WALK_LATENCY_NS


class TestStats:
    def test_level_stats_merge(self):
        a = LevelStats(hits=1, misses=2, writebacks=3)
        b = LevelStats(hits=10, misses=20, writebacks=30)
        m = a.merged(b)
        assert (m.hits, m.misses, m.writebacks) == (11, 22, 33)
        assert m.hit_rate == pytest.approx(11 / 33)

    def test_access_stats_merge_regions(self):
        a = AccessStats()
        a.record_region("x", 5)
        b = AccessStats()
        b.record_region("x", 2)
        b.record_region("y", 1)
        m = a.merged(b)
        assert m.by_region == {"x": 7, "y": 1}

    def test_hit_rate_zero_accesses(self):
        # Regression: no accesses must read as 0.0, not raise or NaN.
        assert LevelStats().hit_rate == 0.0

    def test_access_stats_merge_keeps_flushed_dirty_lines(self):
        # Regression: flushed_dirty_lines must survive merged().
        a = AccessStats(flushed_dirty_lines=4)
        b = AccessStats(flushed_dirty_lines=9)
        assert a.merged(b).flushed_dirty_lines == 13

    def test_merged_regions_do_not_alias_inputs(self):
        a = AccessStats()
        a.record_region("x", 1)
        m = a.merged(AccessStats())
        m.record_region("x", 100)
        assert a.by_region == {"x": 1}

    def test_summary_renders(self):
        text = AccessStats().summary()
        assert "L1" in text and "DRAM" in text


@pytest.fixture()
def mem() -> MemorySystem:
    return MemorySystem(scaled_config(4, cache_shrink=8))


class TestMemorySystem:
    def test_dense_miss_goes_to_dram(self, mem):
        assert mem.dense_access(0, 100) == ServiceLevel.DRAM
        assert mem.dram.reads == 1

    def test_dense_l1_hit(self, mem):
        mem.dense_access(0, 100)
        assert mem.dense_access(0, 100) == ServiceLevel.L1

    def test_l2_shared_between_group_pes(self, mem):
        # PEs 0 and 1 share an L2: PE1 hits in L2 on PE0's line.
        mem.dense_access(0, 100)
        assert mem.dense_access(1, 100) == ServiceLevel.L2

    def test_llc_shared_across_groups(self):
        # Two L2 groups (8 PEs / 4 per L2): PE 4's access to PE 0's
        # line misses its own L1 and L2 but hits the shared LLC.
        mem = MemorySystem(scaled_config(8, cache_shrink=8))
        mem.dense_access(0, 100)
        level = mem.dense_access(mem.config.memory.pes_per_l2, 100)
        assert level == ServiceLevel.LLC
        assert mem.dram.reads == 1  # served on-chip the second time

    def test_bypass_uses_victim_not_caches(self, mem):
        mem.dense_access(0, 200, bypass=True)
        assert mem.dense_access(0, 200, bypass=True) == ServiceLevel.VICTIM
        assert not mem.l1s[0].probe(200)

    def test_stream_bypasses_caches(self, mem):
        mem.stream_access(0, 300)
        assert not mem.l1s[0].probe(300)
        assert mem.bbfs[0].stream.occupancy() == 1

    def test_stream_write_counts_dram_write(self, mem):
        mem.stream_access(0, 300, is_write=True)
        assert mem.dram.writes == 1

    def test_cached_stream_pollutes_caches(self, mem):
        mem.cached_stream_access(0, 400)
        assert mem.l1s[0].probe(400)

    def test_flush_pe(self, mem):
        mem.dense_access(0, 1, is_write=True)
        mem.stream_access(0, 2, is_write=True)
        assert mem.flush_pe(0) >= 2

    def test_latency_ordering(self, mem):
        levels = [ServiceLevel.L1, ServiceLevel.L2, ServiceLevel.LLC,
                  ServiceLevel.DRAM]
        lats = [mem.latency_ns(lv) for lv in levels]
        assert lats == sorted(lats)
        assert mem.latency_ns(ServiceLevel.DRAM) > (
            mem.config.memory.link_latency_ns
        )

    def test_collect_stats_consistent(self, mem):
        for line in range(50):
            mem.dense_access(0, line, region="cmatrix")
        stats = mem.collect_stats()
        assert stats.l1.accesses == 50
        assert stats.dram_reads == stats.by_region.get("cmatrix", 0)

    def test_reset_stats(self, mem):
        mem.dense_access(0, 1)
        mem.reset_stats()
        stats = mem.collect_stats()
        assert stats.l1.accesses == 0
        assert stats.dram_accesses == 0

    def test_writeback_propagates_to_dram(self, mem):
        """Dirty lines evicted through the whole hierarchy must reach
        DRAM as writes."""
        l1_lines = mem.config.pe.l1d.num_lines
        l2_lines = mem.config.memory.l2.num_lines
        llc_lines = mem.llc.num_sets * mem.llc.ways
        total = (l1_lines + l2_lines + llc_lines) * 4
        for line in range(total):
            mem.dense_access(0, line, is_write=True)
        assert mem.dram.writes > 0
