"""Execution engine: runs a schedule on the PEs and the shared memory
system, producing the numeric result and a timing/traffic report.

Within a barrier epoch all PEs run concurrently; the engine emulates
that concurrency by interleaving fixed-size nonzero chunks of the PEs'
tile streams round-robin, so their access streams contend realistically
in the shared L2s and LLC.  Epoch boundaries are scheduling barriers:
the epoch's time is the slowest PE (load imbalance is paid there), and
epochs accumulate (Section 4.3, Figure 5b).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import native
from repro.config import SpadeConfig
from repro.core.bypass import BypassPolicy
from repro.core.cpe import Schedule
from repro.core.instructions import InitializationInstruction, Primitive
from repro.core.pe import PECounters, ProcessingElement
from repro.core.timing import EpochTiming, epoch_timing, flush_time_ns
from repro.core.vectorized import generate_sddmm_epoch, generate_spmm_epoch
from repro.errors import CheckpointError, ConfigError, EngineExecutionError, SpadeError
from repro.kernels.reference import sddmm_chunk_vals, spmm_chunk_update
from repro.memory.address import AddressMap
from repro.memory.hierarchy import MemorySystem, ServiceLevel
from repro.memory.stats import AccessStats
from repro.obs.ledger import NULL_LEDGER
from repro.resilience.checkpoint import CheckpointManager, checkpoint_fingerprint
from repro.sparse.tiled import TiledMatrix

DEFAULT_CHUNK_NNZ = 4096
"""Interleaving granularity across PEs inside an epoch."""


@dataclass
class EngineResult:
    """Everything one kernel execution produced."""

    primitive: Primitive
    output_dense: Optional[np.ndarray]
    output_vals: Optional[np.ndarray]
    time_ns: float
    epoch_timings: List[EpochTiming]
    stats: AccessStats
    counters: PECounters
    per_pe_time_ns: List[float]
    termination_ns: float
    dirty_lines_flushed: int
    unit_stats: List[Tuple[str, str, Dict[str, int]]] = field(
        default_factory=list
    )
    """Per-unit counters behind ``stats``, as ``(level, unit,
    counters)`` rows (see :meth:`MemorySystem.unit_stats`)."""

    @property
    def compute_time_ns(self) -> float:
        """Kernel time without the termination (mode-transition) cost."""
        return self.time_ns - self.termination_ns

    @property
    def dram_bytes(self) -> int:
        return (self.stats.dram_reads + self.stats.dram_writes) * 64

    def bandwidth_utilization(self, peak_gbps: float) -> float:
        if self.time_ns <= 0:
            return 0.0
        return (self.dram_bytes / self.time_ns) / peak_gbps


def chunk_tables(
    tiled: TiledMatrix, groups: List[np.ndarray], chunk_nnz: int
) -> List[np.ndarray]:
    """Each tile-index array of ``groups`` (a schedule's per-PE tile
    lists) cut into chunks of up to ``chunk_nnz`` nonzeros: one int64
    ``(chunks, 3)`` table per group of (input offset, count, output
    start), where each chunk's nonzeros sit in the tiled arrays and
    where its SDDMM output values go.  Chunking restarts at every tile,
    and a tile without nonzeros gives no chunk."""
    tiles = np.concatenate([np.zeros(0, np.int64), *groups])
    nnz = tiled.tile_nnz_num[tiles]
    per_tile = -(-nnz // chunk_nnz)
    chunk_end = np.cumsum(per_tile)
    tile = np.repeat(tiles, per_tile)
    lo = chunk_nnz * (
        np.arange(tile.size) - np.repeat(chunk_end - per_tile, per_tile)
    )
    table = np.empty((tile.size, 3), dtype=np.int64)
    table[:, 0] = tiled.sparse_in_start_offset[tile] + lo
    table[:, 1] = np.minimum(tiled.tile_nnz_num[tile] - lo, chunk_nnz)
    table[:, 2] = tiled.sparse_out_start_offset[tile] + lo
    ends = np.append(0, chunk_end)[np.cumsum([len(g) for g in groups])]
    return _cut(table, ends)


def _cut(array: np.ndarray, ends: np.ndarray) -> List[np.ndarray]:
    """``array`` cut into consecutive pieces ending at ``ends``."""
    ends = ends.tolist()
    return [array[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]


def _coalesced_dispatch(
    counts: np.ndarray,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """The round-robin chunk dispatch order of every epoch, whose PEs
    have ``counts[epoch, pe]`` chunks: every PE's next chunk in PE
    order, round after round, skipping PEs whose chunks are done.

    Gives each epoch's order twice: coalesced into maximal consecutive
    same-PE runs, an int64 ``(runs, 3)`` array of ``(pe, chunk_lo,
    chunk_hi)``, and as the permutation of the epoch's concatenated
    per-PE chunk tables.  Shared levels (L2/LLC/STLB) make replay order
    across PEs observable, so only *consecutive* chunks of the same PE
    may share a replay call, which happens exactly when other PEs have
    exhausted their chunks.  The order is a function of the chunk
    counts alone, never of queue timing, so the replayed stream is
    deterministic and bit-identical to the scalar oracle's."""
    pes = counts.shape[1]
    flat = counts.ravel()
    slot = np.repeat(np.arange(flat.size), flat)  # epoch * pes + pe
    ordinal = np.arange(slot.size) - np.repeat(np.cumsum(flat) - flat, flat)
    order = np.lexsort((slot, ordinal, slot // pes))
    slot, ordinal = slot[order], ordinal[order]
    start = np.flatnonzero(np.diff(slot, prepend=-1))
    length = np.diff(np.append(start, slot.size))
    runs = np.stack(
        [slot[start] % pes, ordinal[start], ordinal[start] + length], 1
    )
    epoch_end = np.cumsum(counts.sum(axis=1))
    epoch_start = [0, *epoch_end[:-1].tolist()]
    return [
        (epoch_runs, epoch_order - first)
        for epoch_runs, epoch_order, first in zip(
            _cut(runs, np.searchsorted(start, epoch_end)),
            _cut(order, epoch_end),
            epoch_start,
        )
    ]


class Engine:
    """Binds a config, memory system, and PEs to execute one kernel."""

    def __init__(
        self,
        config: SpadeConfig,
        tiled: TiledMatrix,
        init: InitializationInstruction,
        address_map: AddressMap,
        policy: BypassPolicy,
        chunk_nnz: int = DEFAULT_CHUNK_NNZ,
        chaos=None,
        ledger=None,
    ) -> None:
        self.config = config
        self.tiled = tiled
        self.init = init
        self.address_map = address_map
        self.policy = policy
        self.chunk_nnz = max(1, chunk_nnz)
        self.memory = MemorySystem(config)
        # Run ledger (off by default), the one recorder: attached to the
        # memory system so the replay dispatch audit, the epoch events
        # and the host-phase spans below land in one event stream.
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self.memory.ledger = self.ledger
        self._chaos = chaos
        # Epoch checkpointing: snapshots land in resilience.checkpoint_dir
        # after every checkpoint_interval-th epoch; resumed_from_epoch
        # records the snapshot a run restarted from (None = fresh run).
        self.resumed_from_epoch: Optional[int] = None
        res = config.resilience
        self._ckpt: Optional[CheckpointManager] = None
        if res.checkpoint_dir is not None:
            self._ckpt = CheckpointManager(
                res.checkpoint_dir,
                interval=res.checkpoint_interval,
                fingerprint=checkpoint_fingerprint(config),
                chaos=chaos,
            )
        # Execution mode: "scalar" is the reference oracle end to end:
        # every nonzero walks the VRF in Python and every access goes
        # straight through MemorySystem.dense_access/stream_access, so
        # the replay mode has no effect.  "vectorized" derives each PE's
        # epoch trace in one compiled call, then replays the epoch
        # through the replay backend: "array" in one compiled call for
        # the whole hierarchy; "scalar" one per-access oracle call per
        # dispatch run.  Without the compiled library vectorized
        # execution runs the scalar executors (_per_chunk), while
        # self.execution stays the requested mode for chaos targeting,
        # errors and the run outcome.  Every combination gives
        # bit-identical results.
        self.execution = config.execution
        self._per_chunk = (
            self.execution == "scalar" or native.vrf_epoch_kernel() is None
        )
        self.pes = [
            ProcessingElement(
                i, config.pe, self.memory, init, address_map, policy
            )
            for i in range(config.num_pes)
        ]

    # -- public entry points ---------------------------------------------

    def run_spmm(
        self, schedule: Schedule, b_dense: np.ndarray
    ) -> EngineResult:
        """Execute D = A @ B over the schedule."""
        if self.init.primitive is not Primitive.SPMM:
            raise ConfigError("engine was initialised for a different primitive")
        d_accum = np.zeros(
            (self.tiled.num_rows, self.init.dense_row_size), dtype=np.float64
        )
        # Once per run: the merge takes a C-contiguous float64 B.
        b64 = np.ascontiguousarray(b_dense, dtype=np.float64)

        tiled = self.tiled

        def gen_chunk(
            pe: ProcessingElement, off: int, count: int, out: int
        ):
            r = tiled.r_ids[off : off + count]
            c = tiled.c_ids[off : off + count]
            pe.execute_spmm_chunk(r, c, off)

        def merge(segments: np.ndarray):
            spmm_chunk_update(
                d_accum, tiled.r_ids, tiled.c_ids, tiled.vals, b64, segments
            )

        def gen_epoch(pe: ProcessingElement, chunks: np.ndarray):
            return generate_spmm_epoch(pe, tiled.r_ids, tiled.c_ids, chunks)

        epochs, per_pe_time = self._run_epochs(
            schedule, gen_chunk, merge, d_accum, "spmm", gen_epoch
        )
        term_ns, dirty = self._terminate()
        stats = self.memory.collect_stats()
        time_ns = sum(e.epoch_time_ns for e in epochs) + term_ns
        return EngineResult(
            primitive=Primitive.SPMM,
            output_dense=d_accum.astype(np.float32),
            output_vals=None,
            time_ns=time_ns,
            epoch_timings=epochs,
            stats=stats,
            counters=self._merged_counters(),
            per_pe_time_ns=per_pe_time,
            termination_ns=term_ns,
            dirty_lines_flushed=dirty,
            unit_stats=self.memory.unit_stats(),
        )

    def run_sddmm(
        self,
        schedule: Schedule,
        b_dense: np.ndarray,
        c_dense: np.ndarray,
    ) -> EngineResult:
        """Execute D = A o (B @ C^T) over the schedule."""
        if self.init.primitive is not Primitive.SDDMM:
            raise ConfigError("engine was initialised for a different primitive")
        out_vals = np.zeros(self.tiled.out_vals_length, dtype=np.float64)
        # Once per run: the merge takes C-contiguous float64 B and C.
        b64 = np.ascontiguousarray(b_dense, dtype=np.float64)
        c64 = np.ascontiguousarray(c_dense, dtype=np.float64)

        tiled = self.tiled

        def gen_chunk(
            pe: ProcessingElement, off: int, count: int, out: int
        ):
            r = tiled.r_ids[off : off + count]
            c = tiled.c_ids[off : off + count]
            out_offsets = out + np.arange(count, dtype=np.int64)
            pe.execute_sddmm_chunk(r, c, off, out_offsets)

        def merge(segments: np.ndarray):
            sddmm_chunk_vals(
                out_vals, tiled.r_ids, tiled.c_ids, tiled.vals, b64, c64,
                segments,
            )

        def gen_epoch(pe: ProcessingElement, chunks: np.ndarray):
            return generate_sddmm_epoch(pe, tiled.r_ids, tiled.c_ids, chunks)

        epochs, per_pe_time = self._run_epochs(
            schedule, gen_chunk, merge, out_vals, "sddmm", gen_epoch
        )
        term_ns, dirty = self._terminate()
        stats = self.memory.collect_stats()
        time_ns = sum(e.epoch_time_ns for e in epochs) + term_ns
        return EngineResult(
            primitive=Primitive.SDDMM,
            output_dense=None,
            output_vals=out_vals.astype(np.float32),
            time_ns=time_ns,
            epoch_timings=epochs,
            stats=stats,
            counters=self._merged_counters(),
            per_pe_time_ns=per_pe_time,
            termination_ns=term_ns,
            dirty_lines_flushed=dirty,
            unit_stats=self.memory.unit_stats(),
        )

    # -- internals ------------------------------------------------------------

    def _run_epochs(
        self,
        schedule: Schedule,
        gen_chunk,
        merge,
        output: np.ndarray,
        primitive: str,
        gen_epoch,
    ) -> Tuple[List[EpochTiming], List[float]]:
        if schedule.tiled is not self.tiled:
            raise ConfigError(
                "schedule was built for a different tiled matrix"
            )
        if schedule.num_pes != self.config.num_pes:
            raise ConfigError(
                f"schedule is for {schedule.num_pes} PEs but the system "
                f"has {self.config.num_pes}"
            )
        epoch_results: List[EpochTiming] = []
        per_pe_total = [0.0] * self.config.num_pes
        self._epoch_counters: List[List[PECounters]] = []
        start_epoch = 0
        if self._ckpt is not None and self.config.resilience.resume:
            loaded = self._ckpt.load_latest()
            if loaded is not None:
                header, state = loaded
                self._check_resume_meta(header, primitive)
                self._restore_snapshot(
                    state, output, epoch_results, per_pe_total
                )
                start_epoch = state["next_epoch"]
                self.resumed_from_epoch = header["epoch"]
        # Run-global per-PE chunk ordinals: EngineExecutionError's
        # chunk_index (and chaos targeting) identifies the n-th chunk a
        # PE processed this run, across epochs.
        self._chunk_ordinal = [0] * self.config.num_pes
        # Every epoch's per-PE chunk tables and dispatch order, built
        # once from the schedule's tile arrays.
        pes = schedule.num_pes
        tables = chunk_tables(
            self.tiled,
            [tiles for epoch in schedule.epochs for tiles in epoch],
            self.chunk_nnz,
        )
        dispatch = _coalesced_dispatch(
            np.array([len(t) for t in tables], np.int64).reshape(-1, pes)
        )
        for epoch_idx in range(start_epoch, schedule.num_epochs):
            epoch_tables = tables[epoch_idx * pes : (epoch_idx + 1) * pes]
            for pe in self.pes:
                pe.counters = PECounters()
            dram_before = self.memory.dram.accesses
            # Host-side phase split (gen / merge / replay seconds)
            # accumulated by the epoch drivers when a ledger is attached.
            phase = [0.0, 0.0, 0.0] if self.ledger.enabled else None
            fused_chunks, replay_runs = 0, []
            with self.ledger.span(
                f"epoch[{epoch_idx}]", cat="epoch", epoch=epoch_idx
            ):
                if self._per_chunk:
                    self._run_epoch_serial(
                        epoch_tables, dispatch[epoch_idx], gen_chunk,
                        merge, phase,
                    )
                else:
                    fused_chunks, replay_runs = self._run_epoch_phased(
                        epoch_tables, dispatch[epoch_idx], gen_epoch,
                        merge, phase, epoch_idx,
                    )
            per_pe = [pe.counters for pe in self.pes]
            self._epoch_counters.append(per_pe)
            dram_lines = self.memory.dram.accesses - dram_before
            timing = epoch_timing(
                per_pe, dram_lines, self.config, self.memory
            )
            epoch_results.append(timing)
            for i, t in enumerate(timing.pe_times_ns):
                per_pe_total[i] += t
            if phase is not None:
                self.ledger.emit(
                    "epoch",
                    epoch=epoch_idx,
                    gen_s=phase[0],
                    merge_s=phase[1],
                    replay_s=phase[2],
                    epoch_time_ns=float(timing.epoch_time_ns),
                    bandwidth_time_ns=float(timing.bandwidth_time_ns),
                    dram_lines=int(dram_lines),
                    critical_pe=int(timing.critical_pe),
                    total_requests=int(timing.total_requests),
                    fused_chunks=int(fused_chunks),
                    replay_runs=replay_runs,
                )
            if self._ckpt is not None and self._ckpt.should_write(
                epoch_idx
            ):
                ckpt_t0 = time.perf_counter()
                self._ckpt.write(
                    epoch_idx,
                    self._snapshot(
                        epoch_idx + 1, output, epoch_results,
                        per_pe_total,
                    ),
                    meta=self._ckpt_meta(primitive),
                )
                if phase is not None:
                    self.ledger.emit(
                        "checkpoint",
                        epoch=epoch_idx,
                        wall_s=time.perf_counter() - ckpt_t0,
                    )
            if self._chaos is not None:
                self._chaos.after_epoch(epoch_idx)
        return epoch_results, per_pe_total

    # -- checkpoint plumbing ---------------------------------------------

    def _ckpt_meta(self, primitive: str) -> dict:
        """Workload identity stored in the checkpoint header, checked
        before resuming so a snapshot is never applied to a different
        kernel, schedule shape, or chunking."""
        return {
            "primitive": primitive,
            "chunk_nnz": self.chunk_nnz,
            "num_pes": self.config.num_pes,
            "nnz": int(len(self.tiled.r_ids)),
        }

    def _check_resume_meta(self, header: dict, primitive: str) -> None:
        expected = self._ckpt_meta(primitive)
        actual = header.get("meta", {})
        for key, want in expected.items():
            got = actual.get(key)
            if got != want:
                raise CheckpointError(
                    f"checkpoint epoch {header.get('epoch')} does not match "
                    f"this run: {key} is {got!r} in the snapshot but "
                    f"{want!r} here"
                )

    def _snapshot(
        self,
        next_epoch: int,
        output: np.ndarray,
        epoch_results: List[EpochTiming],
        per_pe_total: List[float],
    ) -> dict:
        """Full architectural + accumulator state at an epoch boundary.

        Safe exactly here: trace buffers are empty (cleared after each
        epoch's replay), and each finished epoch's PE counters are
        already archived in _epoch_counters —
        so caches, STLBs, BBFs, VRFs, the output accumulator, and the
        schedule cursor (= next_epoch, since chunking restarts per
        epoch) capture everything the remaining epochs depend on.
        """
        return {
            "next_epoch": next_epoch,
            "output": np.array(output, copy=True),
            "epoch_timings": list(epoch_results),
            "per_pe_total": list(per_pe_total),
            "epoch_counters": [list(c) for c in self._epoch_counters],
            "memory": self.memory.state_dict(),
            "pes": [pe.state_dict() for pe in self.pes],
        }

    def _restore_snapshot(
        self,
        state: dict,
        output: np.ndarray,
        epoch_results: List[EpochTiming],
        per_pe_total: List[float],
    ) -> None:
        restored = state["output"]
        if restored.shape != output.shape:
            raise CheckpointError(
                f"checkpoint output has shape {restored.shape}, "
                f"this run produces {output.shape}"
            )
        output[...] = restored
        epoch_results.extend(state["epoch_timings"])
        per_pe_total[:] = state["per_pe_total"]
        self._epoch_counters.extend(state["epoch_counters"])
        try:
            self.memory.load_state_dict(state["memory"])
            for pe, pe_state in zip(self.pes, state["pes"]):
                pe.load_state_dict(pe_state)
        except (KeyError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint state does not fit this system: {exc}"
            ) from exc

    # -- epoch drivers ---------------------------------------------------

    def _run_epoch_serial(
        self, tables, dispatch, gen_chunk, merge, phase=None
    ) -> None:
        """Round-robin chunk interleave of the scalar oracle (and of
        vectorized execution without the compiled library): each
        chunk's VRF walk issues its accesses to the memory system as it
        goes, so generation and replay are one step; each chunk then
        merges as a one-row table.  The chunks are the epoch's per-PE
        chunk ``tables``, run in ``dispatch`` order (the epoch's item of
        :func:`_coalesced_dispatch`), as the phased driver merges them.

        ``phase`` accumulates host seconds as ``[gen, merge, replay]``;
        generation includes the replay it issues, so ``replay`` stays 0.
        """
        if phase is None:
            phase = [0.0, 0.0, 0.0]
        chaos = self._chaos
        chunk_ordinal = self._chunk_ordinal
        perf_counter = time.perf_counter
        runs, _ = dispatch
        for i, c0, c1 in runs.tolist():
            pe = self.pes[i]
            for c in range(c0, c1):
                chunk_idx = chunk_ordinal[i]
                chunk_ordinal[i] += 1
                row = tables[i][c : c + 1]
                try:
                    if chaos is not None:
                        chaos.worker_fault(
                            i, chunk_idx, backend=self.execution
                        )
                        chaos.replay_delay()
                    t0 = perf_counter()
                    gen_chunk(pe, *row[0].tolist())
                    t1 = perf_counter()
                    merge(row)
                    phase[1] += perf_counter() - t1
                    phase[0] += t1 - t0
                except SpadeError:
                    raise
                except Exception as exc:
                    raise EngineExecutionError(
                        f"{self.execution} execution failed on a chunk",
                        pe_id=i,
                        chunk_index=chunk_idx,
                    ) from exc

    # -- whole-epoch fused driver ----------------------------------------

    def _advance_chunks(self, i: int, count: int) -> int:
        """Claim ``count`` chunk ordinals for PE ``i`` and fire the
        per-chunk chaos worker faults (deterministic in (seed, pe,
        chunk), so firing them batched before generation preserves the
        fault set of the per-chunk drivers).  Returns the base ordinal.
        """
        base = self._chunk_ordinal[i]
        self._chunk_ordinal[i] = base + count
        chaos = self._chaos
        if chaos is not None:
            for c in range(count):
                try:
                    chaos.worker_fault(i, base + c, backend=self.execution)
                except SpadeError:
                    raise
                except Exception as exc:
                    raise EngineExecutionError(
                        f"{self.execution} execution failed on a chunk",
                        pe_id=i,
                        chunk_index=base + c,
                    ) from exc
        return base

    def _run_epoch_phased(
        self, tables, dispatch, gen_epoch, merge, phase, epoch_idx
    ) -> Tuple[int, List[List[int]]]:
        """Epoch driver for vectorized execution with the compiled
        library: Phase A derives each PE's *whole epoch* trace in one
        generation call over its chunk table, Phase B runs the output
        math for every chunk in one merge call in ``dispatch`` order
        (the epoch's item of :func:`_coalesced_dispatch`), then replays
        all dispatch runs against the shared memory system in one
        ``MemorySystem.replay_epoch`` call and folds each run's service
        levels back into its PE's counters.
        Returns the number of chunks generated at epoch grain and, with
        a ledger attached under array replay, the epoch's dispatch runs
        as ``[pe, accesses]`` pairs (else an empty list).
        """
        traces: List[Tuple[np.ndarray, np.ndarray]] = []
        segs: List[List[Tuple[int, int]]] = []
        # Phase A: generate every PE's epoch in PE order; the trace
        # stays in the PE's own buffer (zero-copy views).
        for i, pe in enumerate(self.pes):
            self._advance_chunks(i, len(tables[i]))
            with self.ledger.span(
                "gen_epoch", cat="gen", pe=i, epoch=epoch_idx,
                chunks=len(tables[i]),
            ) as span:
                try:
                    segs.append(gen_epoch(pe, tables[i]))
                except SpadeError:
                    raise
                except Exception as exc:
                    raise EngineExecutionError(
                        f"{self.execution} execution failed while "
                        f"generating an epoch trace",
                        pe_id=i,
                    ) from exc
            if phase is not None:
                phase[0] += span.dur_s
            traces.append(pe._trace.views())

        # Phase B: the output math for the whole epoch in dispatch
        # order, then one replay call for its coalesced runs.
        dispatch, order = dispatch
        chaos = self._chaos
        if chaos is not None:
            for _ in range(order.size):
                chaos.replay_delay()
        t0 = time.perf_counter()
        try:
            merge(np.concatenate(tables)[order])
        except SpadeError:
            raise
        except Exception as exc:
            raise EngineExecutionError(
                f"{self.execution} execution failed while merging "
                f"epoch {epoch_idx}"
            ) from exc
        if phase is not None:
            phase[1] += time.perf_counter() - t0
        replay_runs: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for i, c0, c1 in dispatch.tolist():
            s0 = segs[i][c0][0]
            s1 = segs[i][c1 - 1][1]
            if s1 > s0:
                lines, ops = traces[i]
                replay_runs.append((i, lines[s0:s1], ops[s0:s1]))
        t0 = time.perf_counter()
        try:
            self._replay_into_counters(replay_runs)
        except SpadeError:
            raise
        except Exception as exc:
            raise EngineExecutionError(
                f"{self.execution} execution failed while replaying "
                f"epoch {epoch_idx}"
            ) from exc
        runs = []
        if phase is not None:
            phase[2] += time.perf_counter() - t0
            if self.config.replay != "scalar":
                runs = [[i, int(ops.shape[0])] for i, _, ops in replay_runs]
        del replay_runs
        for pe in self.pes:
            pe._trace.clear()
        return int(order.size), runs

    def _replay_into_counters(self, runs) -> None:
        """Replay dispatch runs ``(pe, lines, ops)`` as one epoch and add
        each PE's per-level tallies into its counters."""
        tally = np.zeros(
            (len(self.pes), 3, len(ServiceLevel)), dtype=np.int64
        )
        self.memory.replay_epoch(runs, tally=tally)
        for pe, rows in zip(self.pes, tally.tolist()):
            pe.counters.add_tally(rows)

    def _terminate(self) -> Tuple[float, int]:
        """WB&Invalidate on every PE; returns (flush time, dirty lines).

        The per-chunk driver drains and flushes one PE after the other.
        Vectorized execution replays every PE's VRF drain as one epoch
        of runs in PE order, then flushes every PE: a PE's flush touches
        only its own L1 and BBF, and ``Cache.flush`` does not cascade,
        so no later PE's drain sees it and the result is the oracle's
        (DESIGN.md section 10).  The drain then never reads the compiled
        replay's state back into dicts."""
        dirty = 0
        with self.ledger.span("wb_invalidate", cat="flush"):
            for pe in self.pes:
                pe.counters = PECounters()
            if self._per_chunk:
                for pe in self.pes:
                    dirty += pe.writeback_invalidate()
            else:
                drains = [(pe.pe_id, *pe.drain_trace()) for pe in self.pes]
                self._replay_into_counters(
                    [run for run in drains if run[1].shape[0]]
                )
                for pe in self.pes:
                    dirty += self.memory.flush_pe(pe.pe_id)
        # VRF drain stores count as DRAM/cache writes already; the flush
        # time models draining the dirty L1/BBF lines to memory.
        return flush_time_ns(dirty, self.config), dirty

    def _merged_counters(self) -> PECounters:
        merged = PECounters()
        for per_pe in getattr(self, "_epoch_counters", []):
            for c in per_pe:
                merged = merged.merged(c)
        return merged
