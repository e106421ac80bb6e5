"""Public SPADE API: configure a system, run SpMM/SDDMM, get a report.

Typical use::

    from repro import SpadeSystem, KernelSettings
    from repro.sparse.generators import rmat_graph
    import numpy as np

    a = rmat_graph(scale=10)
    b = np.random.rand(a.num_cols, 32).astype(np.float32)
    system = SpadeSystem.scaled(num_pes=8)
    report = system.spmm(a, b)                    # SPADE Base settings
    report = system.spmm(a, b, settings=KernelSettings(
        row_panel_size=1024, col_panel_size=8192, use_barriers=True))
    print(report.time_ms, report.stats.summary())
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.config import SpadeConfig, paper_config, scaled_config
from repro.core.bypass import BypassPolicy
from repro.core.cpe import ControlProcessor, Schedule, ScheduleParams
from repro.core.engine import DEFAULT_CHUNK_NNZ, Engine, EngineResult
from repro.core.instructions import Primitive
from repro.core.pe import PECounters
from repro.core.timing import requests_per_cycle
from repro.errors import ConfigError, WorkloadError
from repro.memory.address import AddressMap
from repro.memory.stats import AccessStats
from repro.obs.ledger import NULL_LEDGER
from repro.sparse.coo import COOMatrix
from repro.sparse.tiled import TiledMatrix, tile_matrix

DEFAULT_ROW_PANEL = 256
"""SPADE Base row panel size (Section 7.A)."""


@dataclass(frozen=True)
class KernelSettings:
    """The flexibility knobs of one kernel invocation (Table 3).

    ``col_panel_size=None`` means one panel spanning all columns (the
    SPADE Base setting, written "all_columns" in Table 3).
    """

    row_panel_size: int = DEFAULT_ROW_PANEL
    col_panel_size: Optional[int] = None
    rmatrix_bypass: bool = False
    use_barriers: bool = False
    barrier_group_cols: int = 1
    # Fixed in normal operation (Section 5.2); configurable to reproduce
    # the pre-CFG4 configurations of Table 4.
    sparse_stream_bypass: bool = True
    sddmm_output_bypass: bool = True

    def __post_init__(self) -> None:
        if self.row_panel_size < 1:
            raise ConfigError("row_panel_size must be >= 1")
        if self.col_panel_size is not None and self.col_panel_size < 1:
            raise ConfigError("col_panel_size must be >= 1 or None")

    @classmethod
    def base(cls) -> "KernelSettings":
        """SPADE Base: RP=256, CP=all columns, no bypass, no barriers."""
        return cls()

    def describe(self) -> str:
        cp = self.col_panel_size if self.col_panel_size else "all"
        return (
            f"RP={self.row_panel_size} CP={cp} "
            f"bypass={'r' if self.rmatrix_bypass else '-'} "
            f"barriers={'y' if self.use_barriers else 'n'}"
        )


@dataclass
class ExecutionReport:
    """Result + performance report of one kernel execution."""

    result: EngineResult
    settings: KernelSettings
    schedule: Schedule
    config: SpadeConfig

    @property
    def output(self) -> np.ndarray:
        """The numeric result: dense D for SpMM, output vals for SDDMM
        (padded layout; use :func:`sddmm_output_to_coo` to extract the
        sparse matrix)."""
        if self.result.primitive is Primitive.SPMM:
            return self.result.output_dense
        return self.result.output_vals

    @property
    def time_ns(self) -> float:
        return self.result.time_ns

    @property
    def time_ms(self) -> float:
        return self.result.time_ns / 1e6

    @property
    def stats(self) -> AccessStats:
        return self.result.stats

    @property
    def counters(self) -> PECounters:
        return self.result.counters

    @property
    def dram_accesses(self) -> int:
        return self.stats.dram_accesses

    @property
    def llc_accesses(self) -> int:
        return self.stats.llc.accesses

    @property
    def requests_per_cycle(self) -> float:
        return requests_per_cycle(
            self.result.counters.total_requests,
            self.result.time_ns,
            self.config,
        )

    @property
    def bandwidth_utilization(self) -> float:
        return self.result.bandwidth_utilization(
            self.config.memory.dram_peak_gbps
        )

    @property
    def load_imbalance(self) -> float:
        return self.schedule.load_imbalance()


class SpadeSystem:
    """A configured SPADE accelerator ready to execute kernels.

    ``execution`` overrides the config's execution backend (``"scalar"``
    or ``"vectorized"``, see :mod:`repro.config`); the backends differ
    only in host wall-clock time — traces, outputs, stats and counters
    are bit-identical.
    """

    def __init__(
        self,
        config: Optional[SpadeConfig] = None,
        chunk_nnz: int = DEFAULT_CHUNK_NNZ,
        execution: Optional[str] = None,
        chaos=None,
        ledger=None,
    ) -> None:
        self.config = config or paper_config()
        if execution is not None and execution != self.config.execution:
            self.config = dataclasses.replace(
                self.config, execution=execution
            )
        self.chunk_nnz = chunk_nnz
        self.cpe = ControlProcessor(self.config.num_pes)
        # A chaos monkey for fault-injection testing (forwarded to the
        # engine).
        self.chaos = chaos
        # Run ledger (off by default), the one recorder: every kernel
        # this system executes records its host-phase spans, epoch
        # events and replay dispatch audit into it.
        self.ledger = ledger

    @classmethod
    def scaled(cls, num_pes: int = 28, **kwargs) -> "SpadeSystem":
        """A proportionally scaled system (see repro.config)."""
        return cls(scaled_config(num_pes), **kwargs)

    # -- kernel entry points ------------------------------------------------

    def spmm(
        self,
        a: COOMatrix,
        b_dense: np.ndarray,
        settings: Optional[KernelSettings] = None,
    ) -> ExecutionReport:
        """Run D = A @ B on the simulated accelerator."""
        b_dense = np.asarray(b_dense, dtype=np.float32)
        if b_dense.ndim != 2:
            raise WorkloadError(
                f"SpMM operand B must be a 2-D array of shape "
                f"({a.num_cols}, K); got a {b_dense.ndim}-D array of "
                f"shape {b_dense.shape}"
            )
        if b_dense.shape[0] != a.num_cols:
            raise WorkloadError(
                f"SpMM operand B must be ({a.num_cols}, K) — one row per "
                f"sparse-matrix column; got shape {b_dense.shape}. "
                "Did you pass B transposed?"
            )
        if b_dense.shape[1] < 1:
            raise WorkloadError(
                "SpMM operand B must be non-empty (K >= 1 columns); "
                f"got shape {b_dense.shape}"
            )
        return self._execute(
            Primitive.SPMM, a, b_dense.shape[1], settings,
            lambda engine, schedule: engine.run_spmm(schedule, b_dense),
        )

    def sddmm(
        self,
        a: COOMatrix,
        b_dense: np.ndarray,
        c_dense: np.ndarray,
        settings: Optional[KernelSettings] = None,
    ) -> ExecutionReport:
        """Run D = A o (B @ C^T) on the simulated accelerator."""
        b_dense = np.asarray(b_dense, dtype=np.float32)
        c_dense = np.asarray(c_dense, dtype=np.float32)
        if b_dense.ndim != 2 or b_dense.shape[0] != a.num_rows:
            raise WorkloadError(
                f"SDDMM dense operand B must be ({a.num_rows}, K) — one "
                f"row per sparse-matrix row; got shape {b_dense.shape}"
            )
        if c_dense.ndim != 2 or c_dense.shape[0] != a.num_cols:
            raise WorkloadError(
                f"SDDMM dense operand C must be ({a.num_cols}, K) — one "
                f"row per sparse-matrix column; got shape {c_dense.shape}"
            )
        if b_dense.shape[1] != c_dense.shape[1]:
            raise WorkloadError(
                "SDDMM dense operands B and C must share the dense row "
                f"size K; got K={b_dense.shape[1]} for B and "
                f"K={c_dense.shape[1]} for C"
            )
        if b_dense.shape[1] < 1:
            raise WorkloadError(
                "SDDMM dense operands must have at least one column "
                f"(K >= 1); got shape {b_dense.shape}"
            )
        return self._execute(
            Primitive.SDDMM, a, b_dense.shape[1], settings,
            lambda engine, schedule: engine.run_sddmm(
                schedule, b_dense, c_dense
            ),
        )

    def _execute(
        self,
        primitive: Primitive,
        a: COOMatrix,
        k: int,
        settings: Optional[KernelSettings],
        run,
    ) -> ExecutionReport:
        """Tile, schedule and execute one kernel; ``run(engine,
        schedule)`` drives the engine's entry point."""
        settings = settings or KernelSettings.base()
        ledger = self.ledger if self.ledger is not None else NULL_LEDGER
        with ledger.span(
            primitive.value, cat="kernel", nnz=int(a.nnz), k=int(k),
            settings=settings.describe(),
        ):
            tiled = tile_matrix(
                a, settings.row_panel_size, settings.col_panel_size
            )
            amap = self._build_address_map(tiled, k, primitive)
            init = self.cpe.make_initialization(
                primitive,
                amap,
                rmatrix_bypass=settings.rmatrix_bypass,
                cmatrix_bypass=False,
                dense_row_size=k,
            )
            policy = BypassPolicy(
                rmatrix_bypass=settings.rmatrix_bypass,
                sparse_stream_bypass=settings.sparse_stream_bypass,
                sddmm_output_bypass=settings.sddmm_output_bypass,
            )
            with ledger.span("build_schedule", cat="schedule"):
                schedule = self.cpe.build_schedule(
                    tiled,
                    ScheduleParams(
                        use_barriers=settings.use_barriers,
                        barrier_group_cols=settings.barrier_group_cols,
                    ),
                )
            engine = Engine(
                self.config, tiled, init, amap, policy, self.chunk_nnz,
                chaos=self.chaos, ledger=ledger,
            )
            result = run(engine, schedule)
        return ExecutionReport(result, settings, schedule, self.config)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _build_address_map(
        tiled: TiledMatrix, k: int, primitive: Primitive
    ) -> AddressMap:
        amap = AddressMap()
        amap.allocate("sparse_r_ids", tiled.nnz * 4)
        amap.allocate("sparse_c_ids", tiled.nnz * 4)
        amap.allocate("sparse_vals", tiled.nnz * 4)
        if primitive is Primitive.SPMM:
            amap.allocate_dense("rmatrix", tiled.num_rows, k)  # D
            amap.allocate_dense("cmatrix", tiled.num_cols, k)  # B
        else:
            amap.allocate_dense("rmatrix", tiled.num_rows, k)  # B
            amap.allocate_dense("cmatrix", tiled.num_cols, k)  # C
            amap.allocate("sparse_out_vals", tiled.out_vals_length * 4)
        return amap


def sddmm_output_to_coo(
    tiled: TiledMatrix, out_vals: np.ndarray
) -> COOMatrix:
    """Extract the SDDMM result as a COO matrix from the padded output
    vals array (inverse of the Appendix A output layout): a tile's
    ``i``-th entry moves from ``sparse_out_start_offset + i`` to
    ``sparse_in_start_offset + i``, every tile in one gather."""
    shift = np.repeat(
        tiled.sparse_out_start_offset - tiled.sparse_in_start_offset,
        tiled.tile_nnz_num,
    )
    vals = np.asarray(out_vals, dtype=np.float32)[
        np.arange(tiled.nnz) + shift
    ]
    return COOMatrix.trusted(
        tiled.num_rows, tiled.num_cols, tiled.r_ids, tiled.c_ids, vals
    )
