"""Key policy: byte pins for every content key, and the exclusion
lemma as a property generated from the fields' key markers.

The checkpoint fingerprint (``2df5c2…``, in
``test_resilience_checkpoint.py``) is pinned next to its store.  The
pins here cover the remaining keys: the sweep environment fingerprint
and a service job key.  None of them may be regenerated: a changed
digest orphans every result and checkpoint written before it.

The lemma (DESIGN.md section 9.A) walks every scalar leaf of a config,
reads its scope off the markers and perturbs it: a not-keyed leaf
leaves the checkpoint and environment fingerprints unchanged and the
results bit-identical; any other leaf changes the fingerprints.

The two scaled-down workloads are DRAM-bandwidth-bound, so no PE
timing field can move their facts; a third, on its own base with 32x
the DRAM bandwidth, is PE-bound in both of its epochs — issue-bound in
the first, dense-load-latency-bound in the second — so the timing
fields are exercised too.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bench.harness import BenchEnvironment
from repro.config import scaled_config
from repro.core.accelerator import KernelSettings, SpadeSystem
from repro.core.vrf import VectorRegisterFile
from repro.errors import ConfigError
from repro.jobmodel import KEY_SCOPE, environment_fingerprint
from repro.resilience import checkpoint_fingerprint
from repro.service.simulate import request_point, run_jobspec
from repro.sparse.coo import COOMatrix
from repro.sparse.generators import rmat_graph, uniform_random
from tests.test_sweep_properties import env_perturbations, make_env

CHUNK_NNZ = 2048


def _sddmm_uniform():
    a = uniform_random(512, 256, nnz=4000, seed=3)
    rng = np.random.default_rng(7)
    b = rng.random((a.num_rows, 16), dtype=np.float32)
    c = rng.random((a.num_cols, 16), dtype=np.float32)
    return a, b, c


def _spmm_rmat():
    a = rmat_graph(scale=8, seed=5)
    b = np.random.default_rng(0).random((a.num_cols, 32), dtype=np.float32)
    return a, b


def _spmm_pe_bound(system):
    """Two barrier epochs, one per 128-column panel.  The first panel
    holds ~50 nonzeros a row, so each fetched dense line feeds many vOps
    and issue sets the PE's time; the second holds ~2 a row, so dense
    load latency does."""
    dense = uniform_random(128, 128, nnz=8000, seed=3)
    sparse = uniform_random(128, 128, nnz=300, seed=4)
    a = COOMatrix(
        128, 256,
        np.concatenate([dense.r_ids, sparse.r_ids]),
        np.concatenate([dense.c_ids, sparse.c_ids + 128]),
        np.concatenate([dense.vals, sparse.vals]),
    )
    b = np.random.default_rng(0).random((a.num_cols, 128), dtype=np.float32)
    return system.spmm(a, b, settings=KernelSettings(
        col_panel_size=128, use_barriers=True
    ))


def _pe_bound(config):
    """The PE-bound workload's base: 32x the DRAM bandwidth, so the
    slowest PE, not DRAM, sets every epoch's time."""
    memory = config.memory
    return dataclasses.replace(config, memory=dataclasses.replace(
        memory, dram_achievable_gbps=32 * memory.dram_achievable_gbps
    ))


class TestKeyPins:
    def test_environment_fingerprint_pin(self):
        env = BenchEnvironment(scale="small", num_pes=8, opt_mode="quick")
        assert environment_fingerprint(env) == (
            "39ced97aeb9dc8d24e5bf317639f4934"
            "47b391b17d5e842b18d63d46f1f04f10"
        )

    def test_service_job_key_pin(self):
        point = request_point(
            {"matrix": "ASI", "scale": "tiny", "kernel": "spmm",
             "k": 8, "pes": 2}
        )
        assert run_jobspec(point).key == (
            "82446dd27e984f46facee88c4096e69c"
            "1107b94aa7ff1faa8bbf3a1a5c34f6ca"
        )


# -- the exclusion lemma ------------------------------------------------------

BASE = scaled_config(4, cache_shrink=8)

def _same(config):
    return config


# name -> (the workload's base, derived from a config; the kernel run)
WORKLOADS = {
    "sddmm-uniform": (
        _same, lambda system: system.sddmm(*_sddmm_uniform())
    ),
    "spmm-rmat": (_same, lambda system: system.spmm(*_spmm_rmat())),
    "spmm-pe-bound": (_pe_bound, _spmm_pe_bound),
}

# Perturbations the config only accepts together with another change,
# itself in the same (not-keyed) scope.
COMPANIONS = {
    ("resilience", "resume"): ("resilience", "checkpoint_dir"),
}


def _leaves(obj, path=(), scope="result") -> Iterator[Tuple]:
    """``(path, scope)`` of every scalar leaf, the scope read off the
    markers: ``False`` (not keyed) or ``"result"``."""
    for f in dataclasses.fields(obj):
        marker = f.metadata.get(KEY_SCOPE, "result")
        leaf_scope = False if scope is False else marker
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, path + (f.name,), leaf_scope)
        else:
            yield path + (f.name,), leaf_scope


def _get(obj, path):
    for name in path:
        obj = getattr(obj, name)
    return obj


def _replace(obj, path, value):
    head, *rest = path
    if rest:
        value = _replace(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})


def _new_value(f: dataclasses.Field, value: Any, tmp_dir: str):
    """A strategy of values for one leaf that differ from ``value``."""
    if isinstance(value, bool):
        return st.just(not value)
    if isinstance(value, int):
        options = [value + 1, 2 * value, max(1, value // 2)]
    elif isinstance(value, float):
        options = [2 * value, value / 2, value + 1.0]
    elif isinstance(value, str):
        options = ["scalar", "array", "vectorized", "full", "renamed"]
    else:  # an unset Optional
        options = [30.0 if "float" in str(f.type) else tmp_dir]
    return st.sampled_from([v for v in options if v != value])


def _perturb(data, obj, path, tmp_dir):
    """``obj`` with the leaf at ``path`` (and its companion) changed, or
    a rejected example when the config refuses the change."""
    for p in ((COMPANIONS[path],) if path in COMPANIONS else ()) + (path,):
        value = data.draw(
            _new_value(_field_at(obj, p), _get(obj, p), tmp_dir),
            label=".".join(p),
        )
        try:
            obj = _replace(obj, p, value)
        except ConfigError:
            assume(False)
    return obj


def _field_at(obj, path):
    owner = _get(obj, path[:-1])
    return {f.name: f for f in dataclasses.fields(owner)}[path[-1]]


def _vrf_accepts(config) -> bool:
    pe = config.pe
    try:
        VectorRegisterFile(
            pe.num_vector_registers,
            pe.writeback_high_threshold,
            pe.writeback_low_threshold,
        )
    except ValueError:
        return False
    return True


def _observe(config):
    """Per workload: the facts a run computes."""
    out = {}
    for name, (base, run) in WORKLOADS.items():
        run_config = base(config)
        ckpt_dir = config.resilience.checkpoint_dir
        if ckpt_dir is not None:  # one snapshot directory per run
            run_config = _replace(
                run_config, ("resilience", "checkpoint_dir"),
                f"{ckpt_dir}-{name}",
            )
        report = run(SpadeSystem(run_config, chunk_nnz=CHUNK_NNZ))
        out[name] = (
            np.ascontiguousarray(report.output).tobytes(),
            report.result.time_ns,
            dataclasses.asdict(report.stats),
            report.counters,
        )
    return out


@pytest.fixture(scope="module")
def baseline():
    return _observe(BASE)


CONFIG_LEAVES = list(_leaves(BASE))
ENV_LEAVES = list(_leaves(make_env(
    {"scale": "small", "num_pes": 8, "opt_mode": "quick"}
)))


def _ids(leaves):
    return [".".join(path) for path, _ in leaves]


class TestExclusionLemma:
    def test_pe_bound_workload_stays_pe_bound(self):
        base, run = WORKLOADS["spmm-pe-bound"]
        config = base(BASE)
        report = run(SpadeSystem(config, chunk_nnz=CHUNK_NNZ))
        timings = report.result.epoch_timings
        assert len(timings) == 2
        for timing in timings:
            assert max(timing.pe_times_ns) > timing.bandwidth_time_ns
        # The first epoch is issue-bound (the PE clock moves it), the
        # second latency-bound (the DRAM latency moves it).
        for path in (("pe", "frequency_ghz"), ("memory", "dram_latency_ns")):
            halved = _replace(config, path, _get(config, path) / 2)
            epochs = run(
                SpadeSystem(halved, chunk_nnz=CHUNK_NNZ)
            ).result.epoch_timings
            moved = [
                a.epoch_time_ns != b.epoch_time_ns
                for a, b in zip(epochs, timings)
            ]
            assert moved == [path[0] == "pe", path[0] == "memory"], path

    @pytest.mark.parametrize(
        "path,scope", CONFIG_LEAVES, ids=_ids(CONFIG_LEAVES)
    )
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_config_leaf(
        self, path, scope, data, baseline, tmp_path_factory
    ):
        tmp = tmp_path_factory.mktemp("leaf")
        config = _perturb(data, BASE, path, str(tmp / "ckpt"))
        assume(_vrf_accepts(config))
        assert (
            checkpoint_fingerprint(config) == checkpoint_fingerprint(BASE)
        ) == (scope is False)
        observed = _observe(config)
        for name, facts in observed.items():
            if scope is False:
                assert facts == baseline[name], name

    @pytest.mark.parametrize(
        "path,scope", ENV_LEAVES, ids=_ids(ENV_LEAVES)
    )
    @settings(max_examples=10, deadline=None)
    @given(fields=env_perturbations, data=st.data())
    def test_environment_leaf(self, path, scope, fields, data):
        env = make_env(fields)
        perturbed = _perturb(data, env, path, "/any/dir")
        assert (
            environment_fingerprint(perturbed) == environment_fingerprint(env)
        ) == (scope is False)
