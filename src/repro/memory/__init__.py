"""Memory-system substrate: caches, bypass buffers, TLB, and DRAM.

SPADE PEs reuse the host multicore's memory hierarchy (Section 4.1):
each PE has a private L1D and a Bypass Buffer with a small victim cache;
four PEs share a CPU core's L2; all PEs share the sliced LLC and DRAM.
This package simulates that hierarchy at cache-line granularity.
"""

from repro.memory.address import AddressMap, line_of, lines_spanning
from repro.memory.cache import Cache
from repro.memory.bbf import BypassBuffer
from repro.memory.dram import DRAMModel
from repro.memory.tlb import STLB
from repro.memory.stats import AccessStats, LevelStats
from repro.memory.hierarchy import MemorySystem, ServiceLevel

# The array replay backend, which MemorySystem looks up when it is made
# (it imports hierarchy, so hierarchy cannot import it at the top):
# loaded with the package, so a process forked to run jobs has it.
from repro.memory import replay_array  # noqa: F401

__all__ = [
    "AddressMap",
    "line_of",
    "lines_spanning",
    "Cache",
    "BypassBuffer",
    "DRAMModel",
    "STLB",
    "AccessStats",
    "LevelStats",
    "MemorySystem",
    "ServiceLevel",
]
