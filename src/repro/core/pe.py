"""Processing Element: functional + trace-level execution of tiles.

A PE receives a Tile instruction and decomposes it through the pipeline
of Figure 6: the sparse front-end streams the tile's (r_id, c_id, val)
tuples and emits one tOp per nonzero; the vOp Generator splits each tOp
into ``ceil(K*4/64)`` cache-line-sized vOps and filters their operands
through the VRF tag CAM; the dense back-end issues memory requests for
operands not already in registers and lets the Write-back Manager drain
dirty registers as stores.

This model executes those steps *functionally and at trace level*: it
produces (a) the numerically exact tile result and (b) the exact
sequence of line-granular memory requests after VRF filtering, which the
shared :class:`~repro.memory.hierarchy.MemorySystem` services.  Cycle
timing is derived afterwards by :mod:`repro.core.timing` from the
per-service-level request counts tallied here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CACHE_LINE_BYTES, PEConfig
from repro.core.bypass import BypassPolicy
from repro.core.instructions import InitializationInstruction, Primitive
from repro.core.vectorized import TraceBuffer
from repro.core.vrf import VectorRegisterFile
from repro.memory.address import AddressMap, padded_row_bytes
from repro.memory.hierarchy import (
    OP_DENSE,
    OP_DENSE_BYPASS,
    OP_STREAM,
    SPARSE_REGION,
    TRACE_REGIONS,
    MemorySystem,
    ServiceLevel,
    encode_op,
)

_NUM_LEVELS = len(ServiceLevel)
_OUT_VALS_PER_LINE = CACHE_LINE_BYTES // 4

# Region ids into TRACE_REGIONS used by the PE trace ops.
_R_RMATRIX = TRACE_REGIONS.index("rmatrix")
_R_CMATRIX = TRACE_REGIONS.index("cmatrix")
_R_SPARSE_OUT = TRACE_REGIONS.index("sparse_out")


@dataclass
class PECounters:
    """Per-PE pipeline and traffic tallies for the timing model."""

    tops: int = 0
    vops: int = 0
    sparse_line_reads: int = 0
    dense_reads_by_level: List[int] = field(
        default_factory=lambda: [0] * _NUM_LEVELS
    )
    stores_by_level: List[int] = field(
        default_factory=lambda: [0] * _NUM_LEVELS
    )
    sparse_by_level: List[int] = field(
        default_factory=lambda: [0] * _NUM_LEVELS
    )
    output_line_writes: int = 0

    @property
    def total_requests(self) -> int:
        """Memory requests issued by this PE's pipeline."""
        return (
            self.sparse_line_reads
            + sum(self.dense_reads_by_level)
            + sum(self.stores_by_level)
        )

    def add_tally(self, tally: Sequence[Sequence[int]]) -> None:
        """Add per-level tallies: dense reads, stores and sparse accesses,
        one count per service level each (see
        :func:`repro.memory.hierarchy.level_tally`)."""
        for mine, theirs in zip(
            (self.dense_reads_by_level, self.stores_by_level,
             self.sparse_by_level),
            tally,
        ):
            for i, x in enumerate(theirs):
                mine[i] += x

    def merged(self, other: "PECounters") -> "PECounters":
        out = PECounters(
            tops=self.tops + other.tops,
            vops=self.vops + other.vops,
            sparse_line_reads=self.sparse_line_reads
            + other.sparse_line_reads,
            output_line_writes=self.output_line_writes
            + other.output_line_writes,
        )
        for i in range(_NUM_LEVELS):
            out.dense_reads_by_level[i] = (
                self.dense_reads_by_level[i] + other.dense_reads_by_level[i]
            )
            out.stores_by_level[i] = (
                self.stores_by_level[i] + other.stores_by_level[i]
            )
            out.sparse_by_level[i] = (
                self.sparse_by_level[i] + other.sparse_by_level[i]
            )
        return out


class ProcessingElement:
    """One SPADE PE bound to the shared memory system."""

    def __init__(
        self,
        pe_id: int,
        config: PEConfig,
        memory: MemorySystem,
        init: InitializationInstruction,
        address_map: AddressMap,
        policy: BypassPolicy,
    ) -> None:
        self.pe_id = pe_id
        self.config = config
        self.memory = memory
        self.init = init
        self.address_map = address_map
        self.policy = policy
        self.vrf = VectorRegisterFile(
            config.num_vector_registers,
            config.writeback_high_threshold,
            config.writeback_low_threshold,
        )
        self.counters = PECounters()
        k = init.dense_row_size
        self.lines_per_row = padded_row_bytes(k) // CACHE_LINE_BYTES
        # The vectorized epoch generators append the PE's (line, op)
        # trace here; the engine replays it and clears it per epoch.
        # The scalar executors below issue every access directly.
        self._trace = TraceBuffer()
        self._op_sparse = encode_op(
            OP_STREAM if policy.sparse_stream_bypass else OP_DENSE,
            False, SPARSE_REGION,
        )
        self._op_rmatrix_read = encode_op(
            OP_DENSE_BYPASS if policy.rmatrix_bypass else OP_DENSE,
            False, _R_RMATRIX,
        )
        self._op_cmatrix_read = encode_op(
            OP_DENSE_BYPASS if policy.cmatrix_bypass else OP_DENSE,
            False, _R_CMATRIX,
        )
        if init.primitive is Primitive.SPMM:
            self._op_store = encode_op(
                OP_DENSE_BYPASS if policy.rmatrix_bypass else OP_DENSE,
                True, _R_RMATRIX,
            )
        else:
            self._op_store = encode_op(
                OP_STREAM if policy.sddmm_output_bypass else OP_DENSE,
                True, _R_SPARSE_OUT,
            )

    # -- sparse front-end ---------------------------------------------------

    def load_sparse_stream(self, start_offset: int, nnz: int) -> None:
        """Sparse Data Loader: fetch the tile's slices of the r_ids,
        c_ids, and vals arrays (Section 5.1, step 1)."""
        mem = self.memory
        counters = self.counters
        idx_b = self.init.sizeof_indices
        val_b = self.init.sizeof_vals
        arrays = (
            ("sparse_r_ids", idx_b),
            ("sparse_c_ids", idx_b),
            ("sparse_vals", val_b),
        )
        bypass = self.policy.sparse_stream_bypass
        for region, elem_bytes in arrays:
            first, count = self.address_map.stream_lines(
                region, start_offset * elem_bytes, nnz * elem_bytes
            )
            counters.sparse_line_reads += count
            if bypass:
                for line in range(first, first + count):
                    lvl = mem.stream_access(
                        self.pe_id, line, region="sparse"
                    )
                    counters.sparse_by_level[lvl] += 1
            else:
                for line in range(first, first + count):
                    lvl = mem.cached_stream_access(
                        self.pe_id, line, region="sparse"
                    )
                    counters.sparse_by_level[lvl] += 1

    # -- dense path helpers -----------------------------------------------

    def _issue_store(self, line: int) -> None:
        """Route a Write-back Manager store to the right path: SpMM dirty
        VRs hold rMatrix lines; SDDMM dirty VRs hold output lines."""
        mem = self.memory
        if self.init.primitive is Primitive.SPMM:
            lvl = mem.dense_access(
                self.pe_id,
                line,
                is_write=True,
                bypass=self.policy.rmatrix_bypass,
                region="rmatrix",
            )
        else:
            if self.policy.sddmm_output_bypass:
                lvl = mem.stream_access(
                    self.pe_id, line, is_write=True, region="sparse_out"
                )
            else:
                lvl = mem.dense_access(
                    self.pe_id, line, is_write=True, region="sparse_out"
                )
        self.counters.stores_by_level[lvl] += 1

    # -- tile execution -------------------------------------------------------

    def execute_spmm_chunk(
        self,
        r_ids: np.ndarray,
        c_ids: np.ndarray,
        start_offset: int,
    ) -> None:
        """Trace-level SpMM over a chunk of a tile's nonzeros.

        For each nonzero, one tOp; for each tOp, ``lines_per_row`` vOps,
        each touching one rMatrix line (read-modify-write in the VRF)
        and one cMatrix line (read-only).
        """
        self.load_sparse_stream(start_offset, len(r_ids))
        amap = self.address_map
        mem = self.memory
        vrf = self.vrf
        counters = self.counters
        lpr = self.lines_per_row
        rb = self.policy.rmatrix_bypass
        cb = self.policy.cmatrix_bypass
        dense_access = mem.dense_access
        pe_id = self.pe_id
        reads = counters.dense_reads_by_level

        r_lines = amap.dense_row_base_lines(
            "rmatrix", r_ids, self.init.dense_row_size
        )
        c_lines = amap.dense_row_base_lines(
            "cmatrix", c_ids, self.init.dense_row_size
        )
        counters.tops += len(r_ids)
        counters.vops += len(r_ids) * lpr

        for rbase, cbase in zip(r_lines.tolist(), c_lines.tolist()):
            for i in range(lpr):
                rline = rbase + i
                hit, stores = vrf.access(rline, mark_dirty=True)
                if not hit:
                    lvl = dense_access(
                        pe_id, rline, bypass=rb, region="rmatrix"
                    )
                    reads[lvl] += 1
                for s in stores:
                    self._issue_store(s)
                cline = cbase + i
                hit, stores = vrf.access(cline, mark_dirty=False)
                if not hit:
                    lvl = dense_access(
                        pe_id, cline, bypass=cb, region="cmatrix"
                    )
                    reads[lvl] += 1
                for s in stores:
                    self._issue_store(s)

    def execute_sddmm_chunk(
        self,
        r_ids: np.ndarray,
        c_ids: np.ndarray,
        start_offset: int,
        out_offsets: np.ndarray,
    ) -> None:
        """Trace-level SDDMM over a chunk of a tile's nonzeros.

        Both dense operands are read-only; each nonzero additionally
        writes one scalar into the output vals array, coalesced into its
        destination VR (``out_offsets`` are positions in the padded
        output array, line-aligned per tile, Section 4.3)."""
        self.load_sparse_stream(start_offset, len(r_ids))
        amap = self.address_map
        mem = self.memory
        vrf = self.vrf
        counters = self.counters
        lpr = self.lines_per_row
        rb = self.policy.rmatrix_bypass
        cb = self.policy.cmatrix_bypass
        dense_access = mem.dense_access
        pe_id = self.pe_id
        reads = counters.dense_reads_by_level

        r_lines = amap.dense_row_base_lines(
            "rmatrix", r_ids, self.init.dense_row_size
        )
        c_lines = amap.dense_row_base_lines(
            "cmatrix", c_ids, self.init.dense_row_size
        )
        out_region = amap.regions["sparse_out_vals"]
        out_base_line = out_region.base // CACHE_LINE_BYTES
        out_lines = out_base_line + out_offsets // _OUT_VALS_PER_LINE

        counters.tops += len(r_ids)
        counters.vops += len(r_ids) * lpr

        for rbase, cbase, oline in zip(
            r_lines.tolist(), c_lines.tolist(), out_lines.tolist()
        ):
            for i in range(lpr):
                rline = rbase + i
                hit, stores = vrf.access(rline, mark_dirty=False)
                if not hit:
                    lvl = dense_access(
                        pe_id, rline, bypass=rb, region="rmatrix"
                    )
                    reads[lvl] += 1
                for s in stores:
                    self._issue_store(s)
                cline = cbase + i
                hit, stores = vrf.access(cline, mark_dirty=False)
                if not hit:
                    lvl = dense_access(
                        pe_id, cline, bypass=cb, region="cmatrix"
                    )
                    reads[lvl] += 1
                for s in stores:
                    self._issue_store(s)
            # Destination VR for the scalar result: write-only, so a VRF
            # miss allocates without a memory read.
            counters.output_line_writes += 1
            _, stores = vrf.access(int(oline), mark_dirty=True)
            for s in stores:
                self._issue_store(s)

    # -- end of SPADE-mode section -------------------------------------------

    def drain(self) -> None:
        """Flush remaining dirty VRs (WB&Invalidate prelude)."""
        for line in self.vrf.invalidate_all():
            self._issue_store(line)

    def drain_trace(self) -> Tuple[np.ndarray, np.ndarray]:
        """The VRF drain of :meth:`drain` as a trace ``(lines, ops)`` of
        this PE's stores, for a replay backend to replay; the VRF is
        left empty, as after :meth:`drain`."""
        lines = np.array(self.vrf.invalidate_all(), dtype=np.int64)
        return lines, np.full(lines.shape[0], self._op_store, dtype=np.int64)

    def writeback_invalidate(self) -> int:
        """Full WB&Invalidate: VRF drain plus L1/BBF flush.  Returns the
        number of dirty lines written back to the next level."""
        self.drain()
        return self.memory.flush_pe(self.pe_id)

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> dict:
        """Per-PE architectural state at an epoch boundary.

        Only valid between epochs: the trace buffer must be empty
        (cleared after each epoch's replay) and ``counters`` is
        excluded because the engine resets it per epoch and archives
        the per-epoch values itself.
        """
        if len(self._trace) != 0:
            raise RuntimeError(
                f"PE {self.pe_id} has a non-empty trace buffer; "
                "checkpoints are only valid at epoch boundaries"
            )
        return {"vrf": self.vrf.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict`; keys it does not write (older
        snapshots also held the set of rMatrix rows touched) are
        ignored."""
        self.vrf.load_state_dict(state["vrf"])
        self._trace.clear()
