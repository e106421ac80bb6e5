"""The benchmark suite: scaled stand-ins for the ten Table 2 graphs.

Each entry names one of the paper's SuiteSparse graphs, records its
domain and Restructuring Utility (RU) class from Table 2, and builds a
synthetic matrix with the same structural character (see
:mod:`repro.sparse.generators`).  The ``scale`` knob trades fidelity for
simulation time; "tiny" is for unit tests, "default" for benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, List

from repro.errors import WorkloadError
from repro.sparse import generators as gen
from repro.sparse.coo import COOMatrix
from repro.sparse.io import read_matrix_market


class RU(Enum):
    """Restructuring Utility class (Table 2)."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


@dataclass(frozen=True)
class Benchmark:
    """One suite entry: a named graph and its metadata."""

    name: str
    full_name: str
    domain: str
    ru: RU
    builder: Callable[[str], COOMatrix]

    def build(self, scale: str = "default") -> COOMatrix:
        """Materialise the matrix at the given scale."""
        return self.builder(scale)


_SIZES = {
    # generator size parameter per scale; chosen so that "default"
    # matrices have roughly 10^5-10^6 nonzeros, preserving the relative
    # ordering of Table 2 (ORK/KRO/MYC densest, roads sparsest).
    "tiny": 0,
    "small": 1,
    "default": 2,
    "large": 3,
}


def _pick(scale: str, values) -> int:
    try:
        return values[_SIZES[scale]]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; use one of {sorted(_SIZES)}"
        ) from None


def _asi(scale: str) -> COOMatrix:
    return gen.road_graph(side=_pick(scale, (24, 64, 192, 384)), seed=10)


def _liv(scale: str) -> COOMatrix:
    return gen.social_network(
        num_nodes=_pick(scale, (512, 4096, 24576, 98304)),
        avg_degree=16,
        seed=11,
    )


def _ork(scale: str) -> COOMatrix:
    return gen.social_network(
        num_nodes=_pick(scale, (384, 2048, 12288, 49152)),
        avg_degree=48,
        seed=12,
    )


def _pap(scale: str) -> COOMatrix:
    return gen.citation_graph(
        num_communities=_pick(scale, (8, 48, 256, 1024)),
        community_size=48,
        seed=13,
    )


def _del(scale: str) -> COOMatrix:
    return gen.delaunay_like(
        num_nodes=_pick(scale, (512, 8192, 65536, 262144)), seed=14
    )


def _kro(scale: str) -> COOMatrix:
    return gen.rmat_graph(
        scale=_pick(scale, (8, 12, 14, 16)), edge_factor=24, seed=15
    )


def _myc(scale: str) -> COOMatrix:
    return gen.mycielskian_graph(iterations=_pick(scale, (6, 9, 10, 12)))


def _pac(scale: str) -> COOMatrix:
    side = _pick(scale, (8, 16, 32, 48))
    return gen.packing_like(nx=side, ny=side, nz=side, seed=16)


def _roa(scale: str) -> COOMatrix:
    return gen.road_graph(
        side=_pick(scale, (24, 72, 224, 448)), extra_edge_frac=0.1, seed=17
    )


def _ser(scale: str) -> COOMatrix:
    return gen.fem_like(
        num_blocks=_pick(scale, (16, 128, 1024, 4096)),
        block_size=24,
        seed=18,
    )


SUITE: List[Benchmark] = [
    Benchmark("ASI", "asia_osm", "Road graph", RU.LOW, _asi),
    Benchmark("LIV", "com-LiveJournal", "Social network", RU.MEDIUM, _liv),
    Benchmark("ORK", "com-Orkut", "Social network", RU.HIGH, _ork),
    Benchmark("PAP", "coPapersCiteseer", "Citation graph", RU.MEDIUM, _pap),
    Benchmark("DEL", "delaunay_n24", "Geometry problem", RU.LOW, _del),
    Benchmark("KRO", "kron_g500-logn20", "Synthetic graph", RU.HIGH, _kro),
    Benchmark("MYC", "mycielskian17", "Mathematics (fractals)", RU.HIGH, _myc),
    Benchmark(
        "PAC", "packing-500x100x100-b050", "Numerical simulations",
        RU.LOW, _pac,
    ),
    Benchmark("ROA", "road_usa", "Highway graph", RU.LOW, _roa),
    Benchmark("SER", "Serena", "Environmental science", RU.MEDIUM, _ser),
]

_BY_NAME: Dict[str, Benchmark] = {b.name: b for b in SUITE}


def get_benchmark(name: str) -> Benchmark:
    """Look one suite entry up by its short name (e.g. ``"KRO"``)."""
    try:
        return _BY_NAME[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from "
            f"{sorted(_BY_NAME)}"
        ) from None


def load_matrix(spec: str, scale: str) -> COOMatrix:
    """The matrix a ``--matrix`` value names: a Matrix Market file, or a
    suite matrix built at ``scale``."""
    path = Path(spec)
    if path.suffix == ".mtx" or path.exists():
        return read_matrix_market(path)
    try:
        bench = get_benchmark(spec)
    except KeyError as exc:
        # KeyError str() adds quotes around the message; unwrap it.
        raise WorkloadError(exc.args[0]) from exc
    return bench.build(scale)


def suite_names() -> List[str]:
    return [b.name for b in SUITE]


def benchmarks_by_ru(ru: RU) -> List[Benchmark]:
    return [b for b in SUITE if b.ru is ru]
