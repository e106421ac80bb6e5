"""The native kernel loader: build, cache, trust and fallback rules, and
the input checks of the trace generator's and the compiled epoch
replay's wrappers (the SpMM merge's are in ``test_spmm_merge.py``; the
epoch replay's error returns in ``test_replay_run_merge.py``).

Each test points ``tempfile.gettempdir()`` at its own directory and
resets the loader's per-process memo, so it sees a cold host; the
monkeypatches restore the real loader state afterwards.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.config import CacheConfig, scaled_config
from repro.core.vectorized import TraceBuffer, trace_epoch
from repro.memory.cache import Cache
from repro.memory.hierarchy import OP_DENSE, MemorySystem, encode_op
from tests.walks import (
    GENERATE,
    csr_epoch,
    epoch_walk,
    kernels,
    observe,
    oracle_walk,
    vrf_pe,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
needs_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="gcc is not on PATH"
)


def _generate(walk=None):
    """A seeded SpMM and SDDMM epoch through the trace generator the
    loader gives (``walk=None``) or the one ``walk`` forces, with the
    state each leaves."""
    rng = np.random.default_rng(0)
    out = []
    for kernel in ("spmm", "sddmm"):
        pe = vrf_pe(kernel, 32)
        parts = csr_epoch(kernel, rng, 40, 30)
        if walk is None:
            out.append(observe(pe, GENERATE[kernel](pe, parts)))
        else:
            with kernels(walk):
                out.append(observe(pe, GENERATE[kernel](pe, parts)))
    return out


def _cache_walk(walker):
    """One cache walk over a seeded stream, with the cache's state."""
    rng = np.random.default_rng(5)
    cache = Cache(CacheConfig(size_bytes=64 * 16 * 4, associativity=4))
    lines = rng.integers(0, 200, size=3000).astype(np.int64)
    writes = rng.random(3000) < 0.3
    out = walker(cache, lines, writes)
    return [a.tolist() for a in out], [list(s.items()) for s in cache._sets], (
        cache.hits, cache.misses, cache.fills, cache.writebacks,
    )


def _add_at(d_accum, r_ids, c_ids, vals, b64):
    np.add.at(d_accum, r_ids, vals[:, None].astype(np.float64) * b64[c_ids])


def _merge(merge):
    """One seeded SpMM merge chunk through ``merge``, as bytes."""
    rng = np.random.default_rng(3)
    d_accum = rng.random((6, 5))
    merge(d_accum, rng.integers(0, 6, 400), rng.integers(0, 9, 400),
          rng.random(400, dtype=np.float32), rng.random((9, 5)))
    return d_accum.tobytes()


@pytest.fixture()
def cold(tmp_path, monkeypatch):
    """A fresh temp dir and an unloaded kernel; returns the build dir."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(native, "_tried", False)
    monkeypatch.setattr(native, "_kernels", None)
    return native.build_dir()


def _load_recording():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernel = native.vrf_epoch_kernel()
        native.vrf_epoch_kernel()
    return kernel, [w for w in caught if w.category is RuntimeWarning]


@needs_gcc
def test_kernel_loads_where_gcc_exists():
    """A host with gcc must run the compiled kernels: a silent fallback
    would hide the fast path."""
    assert native.vrf_epoch_kernel() is not None
    assert native.replay_epoch_kernel() is not None
    assert _generate() == _generate("python")
    assert _merge(native.kernels().spmm_merge) == _merge(_add_at)
    assert native.kernels_impl() == "native"
    assert _cache_walk(epoch_walk) == _cache_walk(oracle_walk)


def test_no_compiler_gives_the_twin_and_one_warning(cold, tmp_path,
                                                     monkeypatch):
    empty = tmp_path / "empty-path"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    assert native.kernels_impl() is None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _generate()
        again = _generate()
        cache_got = _cache_walk(epoch_walk)
    runtime = [w for w in caught if w.category is RuntimeWarning]
    assert len(runtime) == 1, [str(w.message) for w in runtime]
    assert "gcc" in str(runtime[0].message)
    assert native.kernels_impl() == "python"
    assert got == again == _generate("python")
    assert cache_got == _cache_walk(oracle_walk)
    assert not cold.exists()


@needs_gcc
def test_build_is_cached_and_published_atomically(cold, monkeypatch):
    kernel, warned = _load_recording()
    assert kernel is not None and not warned
    assert os.stat(cold).st_mode & 0o777 == 0o700
    names = sorted(p.name for p in cold.iterdir())
    assert len(names) == 2, names  # the library and its digest, no temps
    assert names[0].endswith(".sha256") and names[1].endswith(".so")
    # A second process start finds the library instead of compiling.
    monkeypatch.setattr(native, "_tried", False)
    monkeypatch.setattr(native, "_kernels", None)
    calls = []
    real_run = subprocess.run

    def spy(cmd, *args, **kwargs):
        calls.append(cmd)
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(native.subprocess, "run", spy)
    assert native.vrf_epoch_kernel() is not None
    assert all("--version" in cmd for cmd in calls), calls


@needs_gcc
def test_truncated_library_is_rebuilt_not_loaded(cold, tmp_path, monkeypatch):
    # Build in a child: truncating a library this process has mapped
    # would make its pages past the new end of file raise SIGBUS.
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=SRC)
    code = "import repro.native as n; assert n.vrf_epoch_kernel() is not None"
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=300)
    (lib,) = cold.glob("*.so")
    good = lib.read_bytes()
    lib.write_bytes(good[: len(good) // 3])
    monkeypatch.setattr(native, "_tried", False)
    monkeypatch.setattr(native, "_kernels", None)
    loaded = []
    real_cdll = native.ctypes.CDLL

    def spy(path, *args, **kwargs):
        loaded.append(Path(path))
        return real_cdll(path, *args, **kwargs)

    monkeypatch.setattr(native.ctypes, "CDLL", spy)
    kernel, warned = _load_recording()
    assert kernel is not None and not warned
    assert lib not in loaded, "the truncated library was loaded"
    assert lib.stat().st_size == len(good)
    assert _generate() == _generate("python")
    assert _cache_walk(epoch_walk) == _cache_walk(oracle_walk)


@pytest.mark.parametrize("kind", ["symlink", "group-writable", "foreign"])
def test_unsafe_directory_is_refused(cold, tmp_path, kind):
    if kind == "symlink":
        target = tmp_path / "elsewhere"
        target.mkdir(mode=0o700)
        cold.symlink_to(target)
    elif kind == "group-writable":
        cold.mkdir()
        os.chmod(cold, 0o770)
    else:
        if os.geteuid() != 0:
            pytest.skip("needs root to give the directory away")
        cold.mkdir(mode=0o700)
        os.chown(cold, os.getuid() + 1, -1)
    kernel, warned = _load_recording()
    assert kernel is None
    assert len(warned) == 1
    assert native.kernels_impl() == "python"
    assert _generate() == _generate("python")
    inside = cold.resolve() if kind == "symlink" else cold
    assert not list(inside.glob("*.so")), "built into a refused directory"


_CHILD = """
import dataclasses, hashlib, json
import numpy as np
from repro import native
from repro.config import scaled_config
from repro.core.accelerator import SpadeSystem
from repro.sparse.generators import uniform_random
a = uniform_random(512, 128, nnz=6000, seed=1)
rng = np.random.default_rng(1)
rep = SpadeSystem(scaled_config(2)).sddmm(
    a, rng.random((512, 32), dtype=np.float32),
    rng.random((128, 32), dtype=np.float32),
)
h = hashlib.sha256(np.ascontiguousarray(rep.output).tobytes())
h.update(repr(dataclasses.asdict(rep.stats)).encode())
h.update(repr(dataclasses.asdict(rep.counters)).encode())
print(json.dumps([native.kernels_impl(), h.hexdigest()]))
"""


@needs_gcc
def test_four_processes_on_a_cold_directory(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=SRC)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(4)
    ]
    outs = []
    for p in procs:
        out, err = p.communicate(timeout=300)
        assert p.returncode == 0, err
        assert "RuntimeWarning" not in err, err
        outs.append(out.strip())
    assert len(set(outs)) == 1, outs
    assert '"native"' in outs[0]
    build = tmp_path / f"repro-native-{os.getuid()}"
    leftovers = [p.name for p in build.iterdir()
                 if not p.name.endswith((".so", ".sha256"))]
    assert not leftovers, leftovers


def test_import_builds_nothing(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=SRC)
    code = ("import repro, repro.core.engine, repro.native as n; "
            "assert n.kernels_impl() is None")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)
    assert not (tmp_path / f"repro-native-{os.getuid()}").exists()


# -- the epoch replay's input checks ----------------------------------------


def _checked_replay(lines, ops):
    """``lines``/``ops`` through an array-replay system's one-PE entry."""
    ms = MemorySystem(dataclasses.replace(scaled_config(1), replay="array"))
    return ms.replay_trace(0, lines, ops)


def _dense(n):
    return np.full(n, encode_op(OP_DENSE, False, 1), np.int64)


def test_cache_walk_rejects_negative_lines():
    """C's ``%`` differs from Python's on negative values, so negative
    lines never reach the compiled replay (nor the oracle behind it)."""
    with pytest.raises(ValueError, match="non-negative"):
        _checked_replay(np.array([3, -1], np.int64), _dense(2))


def test_cache_walk_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="length"):
        native.check_replay_epoch(np.arange(4, dtype=np.int64), _dense(3), 4)
    with pytest.raises(ValueError, match="length"):
        native.check_replay_epoch(np.arange(4, dtype=np.int64), _dense(5), 4)


def test_cache_walk_rejects_wrong_dtypes_and_layouts():
    lines = np.arange(4, dtype=np.int64)
    with pytest.raises(TypeError, match="lines"):
        native.check_replay_epoch(lines.astype(np.int32), _dense(4), 4)
    with pytest.raises(TypeError, match="ops"):
        native.check_replay_epoch(lines, _dense(4).astype(np.uint8), 4)
    with pytest.raises(TypeError, match="lines"):
        _checked_replay(lines.astype(np.float64), _dense(4))
    with pytest.raises(TypeError, match="ops"):
        _checked_replay(lines, _dense(4).astype(np.float64))
    with pytest.raises(ValueError, match="contiguous"):
        native.check_replay_epoch(
            np.arange(8, dtype=np.int64)[::2], _dense(4), 4
        )


@needs_gcc
def test_cache_walk_kernel_checks_its_geometry():
    """The compiled replay's wrapper refuses a hierarchy it cannot hold:
    structures that are not the PEs' and groups', a structure with no
    ways, resident dicts that are not one per set; taking the residents
    into a compiled state refuses sets with more residents than ways,
    negative lines and residents outside their set, and the refused
    resident dicts are left as they were."""
    replay = native.replay_epoch_kernel()
    lines = np.array([0, 2], np.int64)
    ops = _dense(2)

    def system(l1_set0=None):
        # One PE, one group: every structure 2 sets of 2 ways.
        cfg = dataclasses.replace(scaled_config(1), replay="array")
        ms = MemorySystem(cfg)
        geom = CacheConfig(size_bytes=2 * 2 * 64, associativity=2)
        ms.l1s[0], ms.l2s[0], ms.stlbs[0], ms.llc = (
            Cache(geom) for _ in range(4)
        )
        ms.bbfs[0].victim, ms.bbfs[0].stream = Cache(geom), Cache(geom)
        if l1_set0 is not None:
            ms.l1s[0]._sets[0] = l1_set0
        return ms

    def call(ms):
        return replay(ms, [(0, lines, ops)], 4)

    ms = system()
    ms.bbfs.append(ms.bbfs[0])
    with pytest.raises(ValueError, match="need 1 BBFs"):
        call(ms)
    ms = system()
    ms.llc.ways = 0
    with pytest.raises(ValueError, match="way"):
        call(ms)
    ms = system()
    ms.llc._sets.pop()
    with pytest.raises(ValueError, match="resident dicts"):
        call(ms)
    for residents, match in (
        ({4: False, 6: True, 8: False}, "more residents than its 2 ways"),
        ({3: True}, "resident outside its set"),  # line 3 lives in set 1
        ({-4: True}, "negative line"),
    ):
        ms = system(dict(residents))
        with pytest.raises(ValueError, match=match):
            call(ms)
        assert ms.l1s[0]._sets[0] == residents


# -- the trace generator's input checks -------------------------------------


def _epoch_args():
    """Valid ``trace_epoch`` arguments for a 3-chunk SDDMM epoch of 40
    nonzeros, as a dict to corrupt one entry of."""
    r_lines = np.repeat(np.arange(10, dtype=np.int64), 4)
    return dict(
        r_lines=r_lines,
        c_lines=np.arange(40, dtype=np.int64) % 7 + 5000,
        chunk_nnz=np.array([15, 0, 25], dtype=np.int64),
        starts=[0, 15, 15],
        out_starts=np.array([0, 15, 15], dtype=np.int64),
        cadence=2,
    )


def _set(**changes):
    return lambda pe, args: args.update(changes)


def _negate(name, at):
    def corrupt(pe, args):
        arr = args[name].copy()
        arr[at] = -1
        args[name] = arr
    return corrupt


def _set_pe(attr, value):
    def corrupt(pe, args):
        owner = pe.vrf if attr == "num_registers" else pe
        setattr(owner, attr, value)
    return corrupt


@pytest.mark.parametrize(
    "corrupt,match",
    [
        (_set(chunk_nnz=np.array([15, 0, 24], np.int64)), "sum"),
        (_set(chunk_nnz=np.array([41, 0, -1], np.int64)), "non-negative"),
        (_set(chunk_nnz=np.array([15, 0, 25], np.int32)), "chunk_nnz"),
        (_negate("r_lines", 7), "non-negative"),
        (_negate("c_lines", 39), "non-negative"),
        (_negate("out_starts", 2), "non-negative"),
        (_set(out_starts=np.array([0, 15], np.int64)), "per chunk"),
        (_set(out_starts=np.array([0, 15, 15], np.int32)), "out_starts"),
        (_set(cadence=0), "at least 1"),
        (_set_pe("lines_per_row", 0), "at least 1"),
        (_set_pe("num_registers", 0), "residents"),
        (_set_pe("num_registers", 2**31), "residents"),
        (_set_pe("num_registers", 3), "residents"),
    ],
    ids=[
        "chunks-short", "chunk-negative", "chunks-int32", "r-negative",
        "c-negative", "out-negative", "out-per-chunk", "out-int32",
        "cadence-0", "lpr-0", "capacity-0", "capacity-2**31",
        "residents-above-capacity",
    ],
)
@pytest.mark.parametrize("walk", ["native", "python"])
def test_trace_epoch_rejects_before_the_walk(corrupt, match, walk):
    """Each validated input is refused before any walk, by the compiled
    entry and by the twin alike, on a warm PE: its VRF and trace buffer
    are left as they were."""
    pe = vrf_pe("sddmm", 16, 8)
    args = _epoch_args()
    with kernels(walk):
        trace_epoch(pe, **args)  # warm: 8 residents, a non-empty trace
        before = observe(pe, None)
        corrupt(pe, args)
        with pytest.raises((TypeError, ValueError), match=match):
            trace_epoch(pe, **args)
    pe.vrf.num_registers = 8
    pe.lines_per_row = 1
    assert observe(pe, None) == before


@needs_gcc
def test_short_trace_buffer_is_grown_to_the_walk_bound():
    """A trace buffer too short for the epoch is grown before the walk,
    to the walk's bound, not to three entries per access: a long-run
    epoch fits in less than one entry per unelided access."""
    rng = np.random.default_rng(4)
    parts = csr_epoch("spmm", rng, 20, 200, rows=20, cols=8)
    n = sum(len(p[0]) for p in parts)
    traces = []
    for walk in ("native", "python"):
        pe = vrf_pe("spmm", 32)
        pe._trace = TraceBuffer(16)
        pe._trace.extend_range(7, 5, 1)  # a prefix the walk must keep
        with kernels(walk):
            traces.append(observe(pe, GENERATE["spmm"](pe, parts)))
        capacity = pe._trace.storage(0)[0].shape[0]
        if walk == "native":
            assert capacity < n * 2 * pe.lines_per_row
    assert traces[0] == traces[1]
