"""System configuration for the SPADE simulator.

All microarchitectural parameters are taken from Table 1 of the paper
("Microarchitecture of SPADE and its host CPU multicore system, modeled
after a 2-socket Ice Lake with 56 cores total").  The paper's default
SPADE system has 224 PEs (four PEs per CPU core); scaled systems
(SPADE2/4/8 Base) multiply PE count, DRAM bandwidth, LLC size, and link
latency.

Simulating 224 PEs at full matrix scale is infeasible in pure Python, so
:func:`scaled_config` derives a proportionally scaled system: the ratio
of per-PE cache capacity to per-PE working set — which drives every
qualitative result in the paper — is preserved.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError
from repro.jobmodel import NOT_KEYED

CACHE_LINE_BYTES = 64
"""System cache line size in bytes (Table 1: 64B VR entries)."""

FLOAT_BYTES = 4
"""Single-precision floats everywhere (Table 1: single precision SIMD)."""

ELEMS_PER_LINE = CACHE_LINE_BYTES // FLOAT_BYTES
"""Dense elements per cache line (= vector length VL of a vOp)."""


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one set-associative cache."""

    size_bytes: int
    associativity: int
    line_bytes: int = CACHE_LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"{self.associativity} ways x {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


@dataclass(frozen=True)
class PEConfig:
    """One SPADE processing element (Table 1, SPADE columns)."""

    frequency_ghz: float = 0.8
    issue_vops_per_cycle: int = 1
    num_vector_registers: int = 64
    writeback_high_threshold: float = 0.25
    writeback_low_threshold: float = 0.15
    dense_load_queue_entries: int = 32
    sparse_load_queue_entries: int = 6
    store_queue_entries: int = 8
    vop_rs_entries: int = 32
    top_queue_entries: int = 16
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, associativity=8)
    )
    bbf_entries: int = 32
    victim_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=16 * 1024, associativity=2
        )
    )

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz


@dataclass(frozen=True)
class MemoryConfig:
    """Shared memory system (Table 1)."""

    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=1_310_720, associativity=20
        )
    )
    pes_per_l2: int = 4
    llc_slice: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=1_572_864, associativity=12
        )
    )
    num_llc_slices: int = 56
    dram_peak_gbps: float = 410.0
    dram_achievable_gbps: float = 304.0
    # Round-trip latencies seen by a PE, in nanoseconds.  link_latency_ns is
    # the PE <-> memory-controller link component studied in Section 7.B.
    l1_latency_ns: float = 2.0
    l2_latency_ns: float = 10.0
    llc_latency_ns: float = 30.0
    dram_latency_ns: float = 90.0
    link_latency_ns: float = 60.0

    @property
    def llc_total_bytes(self) -> int:
        return self.llc_slice.size_bytes * self.num_llc_slices


@dataclass(frozen=True)
class HostCPUConfig:
    """Host multicore (Table 1, Ice Lake columns) used by the CPU baseline."""

    num_cores: int = 56
    frequency_ghz: float = 2.6
    turbo_ghz: float = 3.5
    simd_fp_units: int = 3
    simd_width_elems: int = 16  # AVX-512, single precision
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=48 * 1024, associativity=12)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=1_310_720, associativity=20)
    )
    llc_total_bytes: int = 84 * 1024 * 1024
    dram_achievable_gbps: float = 304.0
    tdp_watts: float = 470.0
    die_area_mm2: float = 1000.0


@dataclass(frozen=True)
class ObsConfig:
    """Run-ledger (flight recorder) session settings.

    Deliberately **not** a field of :class:`SpadeConfig`: the ledger is
    a host-side observability channel, and where it lands on disk must
    not perturb config fingerprints, checkpoint identity, or sweep
    cache keys.  Drivers build one from flags/env and call
    :meth:`make_ledger`; with no directory configured that returns the
    shared zero-cost null writer, so the default path records nothing
    and pays one attribute read per instrumented site.
    """

    ledger_dir: Optional[str] = None
    validate: bool = False

    def __post_init__(self) -> None:
        if self.ledger_dir is not None and not str(self.ledger_dir):
            raise ConfigError("ledger_dir must be a non-empty path")

    @property
    def enabled(self) -> bool:
        return self.ledger_dir is not None

    def make_ledger(self, *run_id_parts: str):
        """An open :class:`~repro.obs.ledger.RunLedger` in
        ``ledger_dir`` (run id derived from ``run_id_parts`` when
        given), or ``NULL_LEDGER`` when no directory is configured."""
        from repro.obs.ledger import (
            NULL_LEDGER,
            derive_run_id,
            open_run_ledger,
        )

        if self.ledger_dir is None:
            return NULL_LEDGER
        return open_run_ledger(
            self.ledger_dir,
            run_id=derive_run_id(*run_id_parts) if run_id_parts else None,
            validate=self.validate,
        )


REPLAY_MODES = ("scalar", "array")
"""Trace-replay backends.  ``scalar`` is the per-access reference oracle
(one ``MemorySystem`` call per access); ``array`` replays each epoch in
one compiled call that walks each cache once over its event stream, or
without the compiled library the oracle run by run
(:mod:`repro.memory.replay_array`), bit-identical to the oracle on all
counters and cache state (tests/test_replay_array_parity.py).
The name ``array`` is kept from the NumPy solver it replaced, so config
fingerprints and stored sweep and service entries stay valid."""

EXECUTION_MODES = ("scalar", "vectorized")
"""PE execution backends: ``scalar`` is the reference oracle end to end
(every nonzero walks the VRF in Python and every access is one
``MemorySystem`` call, whatever the replay mode); ``vectorized`` derives
each PE's epoch trace with NumPy and the compiled VRF walk and replays
it through the ``replay`` backend (bit-identical traces, outputs, stats,
and counters — see tests/test_execution_parity.py)."""


@dataclass(frozen=True)
class ResilienceConfig:
    """Run-supervision knobs (see :mod:`repro.resilience`).

    Everything defaults off so the default config behaves exactly like
    an unsupervised run.  ``checkpoint_dir`` enables epoch-granular
    snapshots every ``checkpoint_interval`` epochs; ``resume`` restores
    the newest valid snapshot from that directory before running (a
    resumed run is bit-identical to an uninterrupted one).  The
    supervisor knobs bound retries (``max_retries`` with exponential
    backoff ``backoff_base_s * backoff_factor**attempt``), arm a
    watchdog (``timeout_s``, host wall-clock seconds), and control the
    one-step degradation to the scalar oracle (``degrade``).
    """

    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = 1
    resume: bool = False
    timeout_s: Optional[float] = None
    max_retries: int = 0
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        if self.resume and not self.checkpoint_dir:
            raise ConfigError("resume=True requires a checkpoint_dir")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigError("timeout_s must be positive (or None)")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ConfigError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")

    @property
    def checkpointing(self) -> bool:
        return self.checkpoint_dir is not None

    @property
    def supervised(self) -> bool:
        """Whether any supervision feature beyond a plain run is on."""
        return bool(
            self.checkpoint_dir
            or self.resume
            or self.timeout_s
            or self.max_retries
        )


@dataclass(frozen=True)
class SpadeConfig:
    """A full SPADE system: host + PEs + shared memory hierarchy."""

    name: str = "SPADE1"
    num_pes: int = 224
    pe: PEConfig = field(default_factory=PEConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    host: HostCPUConfig = field(default_factory=HostCPUConfig)
    # Bit-identical backends, observation, supervision: never keyed.
    replay: str = field(default="array", metadata=NOT_KEYED)
    execution: str = field(default="vectorized", metadata=NOT_KEYED)
    resilience: ResilienceConfig = field(
        default_factory=ResilienceConfig, metadata=NOT_KEYED
    )

    def __post_init__(self) -> None:
        if self.num_pes < 1:
            raise ConfigError("num_pes must be >= 1")
        if self.replay not in REPLAY_MODES:
            raise ConfigError(
                f"replay must be one of {REPLAY_MODES}, got {self.replay!r}"
            )
        if self.execution not in EXECUTION_MODES:
            raise ConfigError(
                f"execution must be one of {EXECUTION_MODES}, "
                f"got {self.execution!r}"
            )

    @property
    def num_l2s(self) -> int:
        return max(1, self.num_pes // self.memory.pes_per_l2)

    @property
    def total_l1_bytes(self) -> int:
        return self.pe.l1d.size_bytes * self.num_pes

    def scaled(self, factor: int) -> "SpadeConfig":
        """Return a SPADEn Base system: ``factor``x the PE count, DRAM
        bandwidth, LLC size, and link latency (Section 7.E)."""
        if factor < 1:
            raise ConfigError("scale factor must be >= 1")
        mem = replace(
            self.memory,
            dram_peak_gbps=self.memory.dram_peak_gbps * factor,
            dram_achievable_gbps=self.memory.dram_achievable_gbps * factor,
            num_llc_slices=self.memory.num_llc_slices * factor,
            link_latency_ns=self.memory.link_latency_ns * factor,
        )
        return replace(
            self,
            name=f"SPADE{factor}" if factor > 1 else self.name,
            num_pes=self.num_pes * factor,
            memory=mem,
        )


def paper_config() -> SpadeConfig:
    """The full 224-PE system of Table 1."""
    return SpadeConfig()


def _shrunk_cache(cfg: CacheConfig, factor: float, floor_lines: int = 8) -> CacheConfig:
    """Shrink a cache by ``factor``, keeping associativity and alignment."""
    if factor <= 1:
        return cfg
    target_sets = max(
        1, int(cfg.num_sets / factor), -(-floor_lines // cfg.associativity)
    )
    return CacheConfig(
        size_bytes=target_sets * cfg.associativity * cfg.line_bytes,
        associativity=cfg.associativity,
        line_bytes=cfg.line_bytes,
    )


def scaled_config(
    num_pes: int = 28,
    name: Optional[str] = None,
    cache_shrink: float = 1.0,
) -> SpadeConfig:
    """A proportionally scaled SPADE system with ``num_pes`` PEs.

    The per-PE capacities of the shared structures (L2 per 4 PEs, LLC
    slices, DRAM bandwidth) match the 224-PE paper system, so cache
    pressure per unit of work is unchanged; only the aggregate system is
    smaller.

    ``cache_shrink`` additionally shrinks cache capacities so that the
    *footprint-to-capacity ratio* of scaled-down matrices matches the
    paper's full-size matrices (the quantity that decides whether
    tiling/barriers/bypassing pay off).  Shared caches (L2, LLC) shrink
    by the full factor; the L1 shrinks by at most 8x; the BBF and victim
    cache keep their Table 1 sizes, because their behaviour couples to
    the *absolute* row-panel sizes of Table 3, which are not scaled.
    The host CPU's LLC shrinks by the same factor for a fair baseline.
    """
    base = paper_config()
    if num_pes < 1:
        raise ConfigError("num_pes must be >= 1")
    if cache_shrink < 1:
        raise ConfigError("cache_shrink must be >= 1")
    ratio = num_pes / base.num_pes
    mem = replace(
        base.memory,
        l2=_shrunk_cache(base.memory.l2, cache_shrink),
        llc_slice=_shrunk_cache(base.memory.llc_slice, cache_shrink),
        num_llc_slices=max(1, round(base.memory.num_llc_slices * ratio)),
        dram_peak_gbps=base.memory.dram_peak_gbps * ratio,
        dram_achievable_gbps=base.memory.dram_achievable_gbps * ratio,
    )
    pe = replace(
        base.pe,
        l1d=_shrunk_cache(base.pe.l1d, min(cache_shrink, 8.0)),
        victim_cache=_shrunk_cache(
            base.pe.victim_cache, min(cache_shrink, 8.0)
        ),
    )
    host = replace(
        base.host,
        num_cores=max(1, round(base.host.num_cores * ratio)),
        l2=_shrunk_cache(base.host.l2, cache_shrink),
        llc_total_bytes=max(
            64 * 1024,
            round(base.host.llc_total_bytes * ratio / cache_shrink),
        ),
        dram_achievable_gbps=base.host.dram_achievable_gbps * ratio,
    )
    return replace(
        base,
        name=name or f"SPADE1-{num_pes}pe",
        num_pes=num_pes,
        pe=pe,
        memory=mem,
        host=host,
    )


def mini_config(num_pes: int = 4) -> SpadeConfig:
    """A tiny system in the spirit of the miniSPADE prototype die: a few
    PEs sharing one L2.  Useful for tests and cycle-level validation."""
    cfg = scaled_config(num_pes, name=f"miniSPADE-{num_pes}pe")
    pe = replace(
        cfg.pe,
        l1d=CacheConfig(size_bytes=8 * 1024, associativity=4),
        victim_cache=CacheConfig(size_bytes=2 * 1024, associativity=2),
    )
    mem = replace(
        cfg.memory,
        l2=CacheConfig(size_bytes=128 * 1024, associativity=8),
        llc_slice=CacheConfig(size_bytes=256 * 1024, associativity=8),
        num_llc_slices=1,
    )
    return replace(cfg, pe=pe, memory=mem)


def config_summary(cfg: SpadeConfig) -> str:
    """Human-readable one-line-per-parameter summary of a system."""
    rows = [
        ("system", cfg.name),
        ("PEs", cfg.num_pes),
        ("PE frequency", f"{cfg.pe.frequency_ghz} GHz"),
        ("vector registers / PE", cfg.pe.num_vector_registers),
        ("L1D / PE", f"{cfg.pe.l1d.size_bytes // 1024} KB"),
        ("BBF / PE", f"{cfg.pe.bbf_entries} lines"),
        ("victim cache / PE", f"{cfg.pe.victim_cache.size_bytes // 1024} KB"),
        ("L2 (per 4 PEs)", f"{cfg.memory.l2.size_bytes / 1024 / 1024:.2f} MB"),
        (
            "LLC total",
            f"{cfg.memory.llc_total_bytes / 1024 / 1024:.1f} MB",
        ),
        ("DRAM achievable", f"{cfg.memory.dram_achievable_gbps:.0f} GB/s"),
        ("link latency", f"{cfg.memory.link_latency_ns:.0f} ns"),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}} : {v}" for k, v in rows)


def as_dict(cfg: SpadeConfig) -> dict:
    """Flatten a config to a plain dict (for logging/serialisation)."""
    return dataclasses.asdict(cfg)
