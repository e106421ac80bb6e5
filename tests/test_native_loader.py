"""The native kernel loader: build, cache, trust and fallback rules, and
the input checks of the trace generator's and the compiled epoch
replay's wrappers (the merges' are in ``test_spmm_merge.py`` and
``test_sddmm_merge.py``, the tiler's in ``test_sparse_tiled.py``; the
epoch replay's error returns in ``test_replay_run_merge.py``).

Each test points ``tempfile.gettempdir()`` at its own directory and
resets the loader's per-process memo, so it sees a cold host; the
monkeypatches restore the real loader state afterwards.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
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
from repro.core import vectorized
from repro.core.vectorized import TraceBuffer
from repro.kernels.reference import _dots, sddmm_chunk_vals
from repro.memory.cache import Cache
from repro.memory.hierarchy import (
    OP_DENSE,
    MemorySystem,
    ServiceLevel,
    TraceParts,
    encode_op,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.tiled import _order_twin, tile_matrix
from tests.walks import (
    EXECUTE,
    GENERATE,
    WALKS,
    csr_epoch,
    epoch_walk,
    kernels,
    observe,
    oracle_pe,
    oracle_walk,
    segment,
    vrf_pe,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
needs_gcc = pytest.mark.skipif(
    shutil.which("gcc") is None, reason="gcc is not on PATH"
)


def _generate(oracle=False):
    """A seeded SpMM and SDDMM epoch through the trace generator, or
    with ``oracle`` through the scalar executor, with the state each
    leaves."""
    rng = np.random.default_rng(0)
    out = []
    for kernel in ("spmm", "sddmm"):
        parts = csr_epoch(kernel, rng, 40, 30)
        if oracle:
            pe = oracle_pe(kernel, 32)
            out.append(observe(pe, EXECUTE[kernel](pe, parts)))
        else:
            pe = vrf_pe(kernel, 32)
            out.append(observe(pe, GENERATE[kernel](pe, parts)))
    return out


def _generation_refused():
    """Generation without the library: each generator raises
    ``NativeUnavailable`` and leaves its PE as it was."""
    rng = np.random.default_rng(0)
    for kernel in ("spmm", "sddmm"):
        pe = vrf_pe(kernel, 32)
        before = observe(pe, None)
        with pytest.raises(native.NativeUnavailable):
            GENERATE[kernel](pe, csr_epoch(kernel, rng, 40, 30))
        assert observe(pe, None) == before


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


def _add_at(d_accum, r_ids, c_ids, vals, b64, segments):
    """The twin of a one-segment SpMM merge table over all the ids."""
    np.add.at(d_accum, r_ids, vals[:, None].astype(np.float64) * b64[c_ids])


def _merge(merge):
    """One seeded SpMM merge chunk through ``merge``, as bytes."""
    rng = np.random.default_rng(3)
    d_accum = rng.random((6, 5))
    merge(d_accum, rng.integers(0, 6, 400), rng.integers(0, 9, 400),
          rng.random(400, dtype=np.float32), rng.random((9, 5)), segment(400))
    return d_accum.tobytes()


def _sddmm_twin(out_vals, r_ids, c_ids, vals, b64, c64, segments):
    """The twin of a one-segment SDDMM merge table over all the ids."""
    at = int(segments[0, 2])
    out_vals[at : at + len(vals)] = (
        vals.astype(np.float64) * _dots(b64, c64, r_ids, c_ids)
    )


def _sddmm(merge):
    """One seeded SDDMM merge chunk through ``merge``, as bytes."""
    rng = np.random.default_rng(4)
    out = rng.random(420)
    merge(out, rng.integers(0, 6, 400), rng.integers(0, 9, 400),
          rng.random(400, dtype=np.float32), rng.standard_normal((6, 17)),
          rng.standard_normal((9, 17)), segment(400, 7))
    return out.tobytes()


def _tile(order):
    """One seeded shuffled tiling through ``order``, as bytes."""
    rng = np.random.default_rng(6)
    r, c = rng.integers(0, 50, 500), rng.integers(0, 40, 500)
    out = order(r, c, rng.random(500, dtype=np.float32), 50, 40, 7, 6)
    return [a.tobytes() for a in out]


def _dispatched(entries):
    """The kernels of ``entries`` that ``tile_matrix`` and
    ``sddmm_chunk_vals`` call when the library loads."""
    called = set()
    k = native.kernels()

    def recording(name):
        def call(*args):
            called.add(name)
            return getattr(k, name)(*args)
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "_kernels", k._replace(
            **{name: recording(name) for name in entries}
        ))
        tile_matrix(COOMatrix(4, 4, [3, 0], [1, 2], [1.0, 2.0]), 2, 2)
        sddmm_chunk_vals(np.zeros(2), np.zeros(2, np.int64),
                         np.zeros(2, np.int64), np.ones(2, np.float32),
                         np.ones((1, 3)), np.ones((1, 3)), segment(2))
    return called


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
    assert _generate() == _generate(oracle=True)
    assert _merge(native.kernels().spmm_merge) == _merge(_add_at)
    assert _sddmm(native.kernels().sddmm_merge) == _sddmm(_sddmm_twin)
    assert _tile(native.kernels().tile) == _tile(_order_twin)
    assert _dispatched({"tile", "sddmm_merge"}) == {"tile", "sddmm_merge"}
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
        _generation_refused()
        cache_got = _cache_walk(epoch_walk)
    runtime = [w for w in caught if w.category is RuntimeWarning]
    assert len(runtime) == 1, [str(w.message) for w in runtime]
    assert "gcc" in str(runtime[0].message)
    assert native.kernels_impl() == "python"
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
    assert _generate() == _generate(oracle=True)
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
    _generation_refused()
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
        _checked_replay(np.arange(4, dtype=np.int64), _dense(3))
    with pytest.raises(ValueError, match="length"):
        ms = MemorySystem(
            dataclasses.replace(scaled_config(1), replay="array")
        )
        ms.replay_trace(
            [(0, 0, 4)], TraceParts([np.arange(4, dtype=np.int64)]),
            TraceParts([_dense(5)]),
        )


def _ops(*values):
    return np.array(values, np.int64)


_GOOD_RUN = (np.arange(5, dtype=np.int64), _dense(5))
_NO_PATH, _REGION_9 = 3, encode_op(OP_DENSE, False, 9)

def _region(region):
    return encode_op(OP_DENSE, False, region)


TRACE_CHECKS = {
    "clean": ([_GOOD_RUN, _GOOD_RUN], 4, None),
    "line-before-op": (
        [_GOOD_RUN, (np.array([1, -1, 2]), _ops(1, _NO_PATH, -8))], 4,
        "lines must be non-negative",
    ),
    "negative-op-before-path": (
        [(np.arange(3), _ops(_NO_PATH, -1, _REGION_9))], 4,
        "ops must be non-negative",
    ),
    "path-before-region": (
        [(np.arange(3), _ops(_REGION_9, 1, _NO_PATH))], 4,
        "no access path",
    ),
    "region": ([_GOOD_RUN, (np.arange(2), _ops(1, _REGION_9))], 4,
               "region id is not below 4"),
    "region-ids-whose-or-is-past-the-bound": (
        [(np.arange(3), _ops(_region(1), _region(2), _region(0)))], 3,
        None,
    ),
    "region-past-a-bound-of-three": (
        [(np.arange(3), _ops(_region(1), _region(3), _region(2)))], 3,
        "region id is not below 3",
    ),
    "first-failing-run": (
        [_GOOD_RUN, (np.arange(2), _ops(1, _REGION_9)),
         (np.array([-4]), _ops(-1))], 4,
        "region id is not below 4",
    ),
    "empty-runs": ([(np.arange(0), _ops()), _GOOD_RUN], 4, None),
    "long-run": (
        [(np.arange(1000), np.full(1000, _region(2), np.int64)),
         (np.arange(1003), np.r_[np.full(1002, _region(2)), -1])], 4,
        "ops must be non-negative",
    ),
}


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("case", sorted(TRACE_CHECKS))
def test_trace_check_reports_the_first_failing_run(case, walk):
    """The epoch replay checks every run before it replays any, in the
    compiled call's counting pass or with NumPy run by run: the first
    failing run's failure, by the precedence within a run (negative
    line, negative op, no path, region), as the same message on either
    path.  The runs alternate between two PEs; a refused epoch leaves
    the warm system's residents and counters and the tally as they
    were."""
    runs, n_regions, message = TRACE_CHECKS[case]
    runs = [(k % 2, lines.astype(np.int64), ops.astype(np.int64))
            for k, (lines, ops) in enumerate(runs)]
    regions = tuple(f"region{r}" for r in range(n_regions))
    ms = MemorySystem(dataclasses.replace(scaled_config(2), replay="array"))
    tally = np.zeros((2, 3, len(ServiceLevel)), np.int64)
    with kernels(walk):
        ms.replay_epoch([(1, np.arange(40, dtype=np.int64) * 3, _dense(40))],
                        regions, tally)
        before = (pickle.dumps(ms.state_dict()), tally.tobytes())
        if message is None:
            ms.replay_epoch(runs, regions, tally)
            assert pickle.dumps(ms.state_dict()) != before[0]
        else:
            with pytest.raises(ValueError, match=message):
                ms.replay_epoch(runs, regions, tally)
            assert (pickle.dumps(ms.state_dict()), tally.tobytes()) == before


def test_cache_walk_rejects_wrong_dtypes_and_layouts():
    """The replay takes any 1-D integer arrays, converted to contiguous
    int64 before the check (an int32 line, a uint8 op and a strided
    array replay like their int64 copies), and refuses the rest before
    anything replays."""
    lines = np.arange(4, dtype=np.int64)
    want = _checked_replay(lines, _dense(4)).tolist()
    assert _checked_replay(lines.astype(np.int32), _dense(4)).tolist() == want
    assert _checked_replay(
        lines, _dense(4).astype(np.uint8)
    ).tolist() == want
    with pytest.raises(TypeError, match="lines"):
        _checked_replay(lines.astype(np.float64), _dense(4))
    with pytest.raises(TypeError, match="ops"):
        _checked_replay(lines, _dense(4).astype(np.float64))
    assert _checked_replay(
        np.arange(8, dtype=np.int64)[::2], _dense(4)
    ).tolist() == _checked_replay(np.arange(0, 8, 2), _dense(4)).tolist()
    with pytest.raises(ValueError, match="1-D"):
        _checked_replay(lines.reshape(2, 2), _dense(4).reshape(2, 2))


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


def _epoch():
    """A warm SDDMM PE and a valid 3-chunk epoch of 40 nonzeros for it,
    ``(r_ids, c_ids, chunks)`` as a list to corrupt one entry of."""
    pe = vrf_pe("sddmm", 16, 8)
    r_ids = np.repeat(np.arange(10, dtype=np.int64), 4)
    c_ids = np.arange(40, dtype=np.int64) % 7 + 5000
    chunks = np.array([[0, 15, 0], [15, 0, 15], [15, 25, 15]], np.int64)
    epoch = [r_ids, c_ids, chunks]
    GENERATE["sddmm"](pe, epoch)  # warm: 8 residents, a non-empty trace
    return pe, epoch


def _set(at, value):
    def corrupt(pe, epoch, mp):
        epoch[at] = value(epoch[at])
    return corrupt


def _negate(at, row, col=None):
    def corrupt(pe, epoch, mp):
        arr = epoch[at].copy()
        arr[row if col is None else (row, col)] = -1
        epoch[at] = arr
    return corrupt


def _assign(at, row, value):
    def corrupt(pe, epoch, mp):
        arr = epoch[at].copy()
        arr[row] = value
        epoch[at] = arr
    return corrupt


def _all(*corruptions):
    def corrupt(pe, epoch, mp):
        for c in corruptions:
            c(pe, epoch, mp)
    return corrupt


_TOP = np.iinfo(np.int64).max
_LINE = "dense lines must be non-negative and below"


def _set_pe(attr, value):
    def corrupt(pe, epoch, mp):
        owner = pe.vrf if attr == "num_registers" else pe
        setattr(owner, attr, value)
    return corrupt


def _cadence(value):
    def corrupt(pe, epoch, mp):
        mp.setattr(vectorized, "_elision_cadence", lambda *a, **kw: value)
    return corrupt


@pytest.mark.parametrize(
    "corrupt,match",
    [
        (_negate(2, 2, 1), "non-negative"),
        (_set(2, lambda t: t.astype(np.int32)), "chunks"),
        (_set(0, lambda r: r.astype(np.int32)), "r_ids"),
        (_negate(0, 7), "non-negative"),
        (_negate(1, 39), "non-negative"),
        (_negate(2, 2, 2), "non-negative"),
        (_cadence(0), "at least 1"),
        (_set_pe("lines_per_row", 0), "at least 1"),
        (_set_pe("num_registers", 0), "residents"),
        (_set_pe("num_registers", 2**31), "residents"),
        (_set_pe("num_registers", 3), "residents"),
        (_assign(1, 39, _TOP), _LINE),
        (_all(_negate(0, 3), _assign(1, 39, _TOP)), _LINE),
        (_all(_negate(0, 3), _negate(2, 2, 1)), "chunks must be"),
        (_all(_assign(1, 2, _TOP), _negate(2, 2, 2)), "output offsets"),
    ],
    ids=[
        "chunk-negative", "chunks-int32", "r-int32", "r-negative",
        "c-negative", "out-negative", "cadence-0", "lpr-0", "capacity-0",
        "capacity-2**31", "residents-above-capacity",
        "c-past-the-top-in-the-last-chunk", "r-and-c-bad",
        "chunk-before-line", "output-before-line",
    ],
)
def test_generation_rejects_before_the_walk(corrupt, match, monkeypatch):
    """Each validated input is refused before any walk on a warm PE:
    its VRF, trace buffer and counters are left as they were.  A bad
    chunk table, then a negative output start, wins over a bad id, which
    the keep-marking pass finds in any chunk, r or c."""
    if native.vrf_epoch_kernel() is None:
        pytest.skip("compiled trace generator unavailable")
    pe, epoch = _epoch()
    before = observe(pe, None)
    corrupt(pe, epoch, monkeypatch)
    with pytest.raises((TypeError, ValueError), match=match):
        GENERATE["sddmm"](pe, epoch)
    pe.vrf.num_registers = 8
    pe.lines_per_row = 1
    assert observe(pe, None) == before


@needs_gcc
def test_short_trace_buffer_is_grown_to_the_walk_bound():
    """A trace buffer too short for the epoch is grown before the walk,
    to the walk's bound, not to three entries per access: a long-run
    epoch fits in less than one entry per unelided access.  The trace
    after the kept prefix is the scalar executor's."""
    rng = np.random.default_rng(4)
    parts = csr_epoch("spmm", rng, 20, 200, rows=20, cols=8)
    n = int(parts[2][:, 1].sum())
    pe = vrf_pe("spmm", 32)
    pe._trace = TraceBuffer(16)
    lines, ops, _ = pe._trace.storage(5)
    lines[:5] = np.arange(7, 12)  # a prefix the walk must keep
    ops[:5] = 1
    pe._trace.commit(5)
    got = observe(pe, GENERATE["spmm"](pe, parts))
    assert pe._trace.storage(0)[0].shape[0] < n * 2 * pe.lines_per_row
    oracle = oracle_pe("spmm", 32)
    segs, t_lines, t_ops, *rest = observe(
        oracle, EXECUTE["spmm"](oracle, parts)
    )
    assert got == (
        [(a + 5, b + 5) for a, b in segs],
        lines[:5].tobytes() + t_lines,
        ops[:5].tobytes() + t_ops,
        *rest,
    )
