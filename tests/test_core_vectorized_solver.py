"""Differential check: the compiled PE-epoch trace generator vs its twin.

``trace_epoch`` runs one PE-epoch of trace generation through the C
entry in ``repro/native/vrf_walk.c`` when it loads.  That entry
assembles the VRF access stream from each nonzero's lines, drops the
touches the elision argument (DESIGN.md section 7) proves invisible,
walks the vector register file and writes the trace.  Its Python twin
``_trace_epoch_twin`` walks the full, unelided stream, so each
comparison of the two also checks the elision argument.  They must
agree exactly on the trace bytes, the chunk segments, the *ordered*
resident tags that seed the next epoch, the dirty count, all five VRF
counters and the PE counters.  Every check runs several epochs on the
same PE, so carried warm state is covered, not only the cold start.

The twin's walk, ``_run_vrf_stream``, is in turn held to the per-access
oracle ``VectorRegisterFile.access`` on arbitrary streams, including
what generation never produces: a dirty line given a clean touch,
negative line ids, and a miss that loads nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core import vectorized
from repro.core.vectorized import _OP_NONE, _run_vrf_stream, trace_epoch
from repro.core.vrf import VectorRegisterFile
from tests.walks import (
    COLS,
    GENERATE,
    OBSERVED,
    SPARSE_NNZ,
    VRF_STATE,
    WALKS,
    chunk_parts,
    csr_epoch,
    kernels,
    observe,
    vrf_pe,
)

_OP_STORE = 1000
_KINDS = ("spmm", "sddmm")


@pytest.fixture()
def kernel_loaded():
    if native.vrf_epoch_kernel() is None:
        pytest.skip("compiled trace generator unavailable: nothing to compare")


# -- the fused entry against its unelided twin -------------------------------


def _check_fused(make_pe, steps, label, cadence=None):
    """Run the same epoch steps (``step(pe) -> segments``) on two fresh
    PEs, one through the compiled entry and one through the twin, and
    assert exact agreement after every epoch.  ``cadence`` forces the
    elision cadence the generators pass; by default they use
    ``_elision_cadence``'s, the largest safe one."""
    seen = {}
    for walk in WALKS:
        pe = make_pe()
        with kernels(walk), pytest.MonkeyPatch.context() as mp:
            if cadence is not None:
                mp.setattr(vectorized, "_elision_cadence",
                           lambda *args, **kw: cadence)
            seen[walk] = ([observe(pe, step(pe)) for step in steps], pe)
    (want, _), (got, pe) = seen["python"], seen["native"]
    for ep, (w, g) in enumerate(zip(want, got)):
        for name, wv, gv in zip(OBSERVED, w, g):
            assert gv == wv, f"{label} ep{ep}: {name} diverged"
    return pe


def _epochs(kernel, parts_per_epoch):
    gen = GENERATE[kernel]
    return [lambda pe, parts=parts: gen(pe, parts)
            for parts in parts_per_epoch]


def _check_parts(kernel, k, cap, parts_per_epoch, label, high=None,
                 low=None, cadence=None):
    return _check_fused(
        lambda: vrf_pe(kernel, k, cap, high, low),
        _epochs(kernel, parts_per_epoch), f"{kernel} k={k} {label}",
        cadence,
    )


@pytest.mark.usefixtures("kernel_loaded")
@pytest.mark.parametrize("cadence", [None, 1], ids=["max", "one"])
@pytest.mark.parametrize("k", [16, 32, 64, 128])
def test_csr_runs_cross_chunk_bounds(k, cadence):
    """The paper's VRF (64 lines, 25%/15% watermarks) over CSR-shaped
    epochs whose rMatrix and output runs cross chunk bounds."""
    rng = np.random.default_rng(k)
    for kernel in _KINDS:
        for cols in (8, COLS):
            epochs = [csr_epoch(kernel, rng, 30, 60, cols=cols)
                      for _ in range(3)]
            pe = _check_parts(kernel, k, 64, epochs, f"cols={cols}",
                              cadence=cadence)
            assert pe.vrf.tag_hits > 0


@pytest.mark.usefixtures("kernel_loaded")
@pytest.mark.parametrize("cap", [1, 2])
def test_tiny_capacity(cap):
    rng = np.random.default_rng(cap)
    for kernel in _KINDS:
        for k in (16, 64):
            epochs = [csr_epoch(kernel, rng, 10, 12, rows=6, cols=6)
                      for _ in range(3)]
            _check_parts(kernel, k, cap, epochs, f"cap={cap}",
                         high=1, low=0)


@pytest.mark.usefixtures("kernel_loaded")
@pytest.mark.parametrize("high,low", [(4, 4), (4, 0), (0, 0)])
def test_watermark_edges(high, low):
    """``high == low``, ``low == 0`` and ``high == 0`` (every dirtying
    access drains)."""
    rng = np.random.default_rng(high * 10 + low)
    for kernel in _KINDS:
        epochs = [csr_epoch(kernel, rng, 20, 30, rows=20, cols=4)
                  for _ in range(3)]
        pe = _check_parts(kernel, 16, 16, epochs, f"high={high} low={low}",
                          high=high, low=low)
        assert pe.vrf.manager_writebacks > 0


@pytest.mark.usefixtures("kernel_loaded")
def test_drain_on_every_access():
    """With both watermarks at 0 every dirtying touch drains exactly one
    line: each rMatrix touch (SpMM) or output touch (SDDMM)."""
    n = 200
    r_ids = np.arange(n, dtype=np.int64) % 7
    c_ids = np.arange(n, dtype=np.int64) % 5
    rng = np.random.default_rng(0)
    for kernel in _KINDS:
        parts = chunk_parts(kernel, r_ids, c_ids, [50, 50, 120], rng)
        pe = _check_parts(kernel, 32, 4, [parts] * 2, "drain every access",
                          high=0, low=0)
        per_nnz = pe.lines_per_row if kernel == "spmm" else 1
        assert pe.vrf.manager_writebacks == 2 * n * per_nnz


@pytest.mark.usefixtures("kernel_loaded")
def test_empty_stream_keeps_warm_state():
    rng = np.random.default_rng(5)
    e = np.zeros(0, dtype=np.int64)
    for kernel in _KINDS:
        empty = (e, e, np.zeros((3, 3), dtype=np.int64))
        warm = csr_epoch(kernel, rng, 20, 10, rows=30, cols=30)
        pe = _check_parts(kernel, 16, 8, [empty, warm, empty], "empty")
        assert pe.vrf.occupancy == 8


@pytest.mark.usefixtures("kernel_loaded")
@pytest.mark.parametrize("cap", [8, 64])
def test_scattered_line_ids(cap):
    """Line ids spread over the non-negative int64 range, not a dense
    region: their tag-table homes collide, so lookups, evictions and the
    removals that shift colliding entries all get exercised."""
    rng = np.random.default_rng(cap)
    # Disjoint line pools per operand, as the address map's regions are.
    pool = rng.integers(2**40, 2**62, size=4 * cap)
    r_pool, c_pool = pool[: 2 * cap], pool[2 * cap :]
    out_pool = rng.integers(0, 2**32, size=8)

    def epoch(sddmm):
        n = 8_000
        r_lines = np.repeat(rng.choice(r_pool, size=n // 4), 4)
        c_lines = rng.choice(c_pool, size=n)
        sizes = np.array([n // 2, 0, n - n // 2], dtype=np.int64)
        outs = rng.choice(out_pool, size=3) if sddmm else None
        return r_lines, c_lines, sizes, [0, 0, 0], outs

    def step(pe, args):
        slots, live = (2, 1) if args[-1] is None else (3, 2)
        cadence = vectorized._elision_cadence(pe.vrf, slots, live, 1)
        return trace_epoch(pe, *args, cadence)

    for kernel in _KINDS:
        epochs = [epoch(kernel == "sddmm") for _ in range(3)]
        _check_fused(
            lambda: vrf_pe(kernel, 16, cap),
            [lambda pe, args=args: step(pe, args) for args in epochs],
            f"scattered {kernel} cap={cap}",
        )


@pytest.mark.parametrize(
    "bad",
    [
        lambda r, c: (r.astype(np.int32), c),
        lambda r, c: (r[::2], c[::2]),
        lambda r, c: (r, c[:-1]),
        lambda r, c: (r.tolist(), c),
    ],
    ids=["lines-int32", "strided", "length", "list"],
)
def test_stream_is_validated_before_the_walk(bad):
    """The compiled entry and the twin refuse the same malformed lines,
    before any walk."""
    r_lines = np.arange(0, 40, 2, dtype=np.int64)
    c_lines = np.arange(1, 41, 2, dtype=np.int64)
    sizes = np.array([r_lines.size], dtype=np.int64)
    for walk in WALKS:
        pe = vrf_pe("spmm", 16, 4)
        before = observe(pe, None)
        with kernels(walk), pytest.raises((TypeError, ValueError)):
            trace_epoch(pe, *bad(r_lines, c_lines), sizes, [0], None, 1)
        assert observe(pe, None) == before


@st.composite
def _fused_cases(draw):
    kernel = draw(st.sampled_from(_KINDS))
    k = draw(st.sampled_from([16, 32, 64, 128]))
    cap = draw(st.integers(2, 64))
    high = draw(st.integers(0, cap))
    low = draw(st.integers(0, high))
    cadence = draw(st.sampled_from([None, 1]))
    rows = draw(st.integers(1, 12))
    cols = draw(st.sampled_from([4, 32, COLS]))
    epochs = []
    for _ in range(3):
        runs = draw(st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(1, 40)),
            max_size=8,
        ))
        r_ids = np.repeat(
            np.array([row for row, _ in runs], dtype=np.int64),
            [length for _, length in runs],
        ).astype(np.int64)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        c_ids = rng.integers(0, cols, size=r_ids.size).astype(np.int64)
        cuts = sorted(draw(st.lists(
            st.integers(0, r_ids.size), max_size=4,
        )))
        jumps = draw(st.sets(st.integers(0, len(cuts)), max_size=2))
        epochs.append(chunk_parts(kernel, r_ids, c_ids, cuts, rng, jumps))
    return kernel, k, cap, high, low, cadence, epochs


@pytest.mark.usefixtures("kernel_loaded")
@settings(max_examples=150, deadline=None)
@given(_fused_cases())
def test_kernel_matches_twin_on_any_stream(case):
    """Both primitives, every K the engine pads to 1-8 lines, VRFs of
    2-64 lines with any watermarks, chunk lists with empty chunks and
    runs across their bounds, the cadence forced to 1 or left at its
    maximum, warm state over three epochs."""
    kernel, k, cap, high, low, cadence, epochs = case
    _check_parts(kernel, k, cap, epochs,
                 f"cap={cap} high={high} low={low} cadence={cadence}",
                 high=high, low=low, cadence=cadence)


# -- the twin's walk against the per-access oracle ---------------------------


def _vrf(cap, high=None, low=None):
    """A VRF with the paper's 25%/15% watermarks, or explicit ones."""
    vrf = VectorRegisterFile(max(cap, 2), 0.25, 0.15)
    vrf.num_registers = cap
    if high is not None:
        vrf._high = high
    if low is not None:
        vrf._low = low
    return vrf


def _oracle(vrf, lines, dirty, emit, op_store):
    """``VectorRegisterFile.access`` per access, as the scalar executors
    issue it, with each emission's access index."""
    out_lines, out_ops, out_pos = [], [], []
    for pos, (line, dm, op) in enumerate(
        zip(lines.tolist(), dirty.tolist(), emit.tolist())
    ):
        hit, stores = vrf.access(line, mark_dirty=dm)
        if not hit and op >= 0:
            out_lines.append(line)
            out_ops.append(op)
            out_pos.append(pos)
        out_lines += stores
        out_ops += [op_store] * len(stores)
        out_pos += [pos] * len(stores)
    return (np.asarray(out_lines, dtype=np.int64),
            np.asarray(out_ops, dtype=np.int64),
            np.asarray(out_pos, dtype=np.int64))


def _random_stream(rng, n, nlines, line_dirty, none_frac=0.1):
    lines = rng.integers(0, nlines, size=n).astype(np.int64)
    dirty = line_dirty[lines]
    emit = rng.integers(0, 32, size=n).astype(np.int64)
    emit[rng.random(n) < none_frac] = _OP_NONE
    return lines, dirty, emit


def _check_epochs(streams, cap, label, high=None, low=None):
    """Feed the same epoch streams through the twin's walk and the
    oracle, asserting exact agreement after every epoch."""
    vrf_twin = _vrf(cap, high, low)
    vrf_oracle = _vrf(cap, high, low)
    for ep, (lines, dirty, emit) in enumerate(streams):
        got = _run_vrf_stream(vrf_twin, lines, dirty, emit, _OP_STORE)
        want = _oracle(vrf_oracle, lines, dirty, emit, _OP_STORE)
        for name, w, g in zip(("lines", "ops", "positions"), want, got):
            np.testing.assert_array_equal(
                g, w, err_msg=f"{label} ep{ep}: emitted {name}"
            )
        for attr in VRF_STATE:
            assert getattr(vrf_oracle, attr) == getattr(vrf_twin, attr), (
                f"{label} ep{ep}: {attr}"
            )
        # Order matters: insertion order is the eviction order the next
        # epoch starts from.
        assert (
            list(vrf_oracle._tags.items()) == list(vrf_twin._tags.items())
        ), f"{label} ep{ep}: resident tags diverged"
    return vrf_twin


@pytest.mark.parametrize("cap", [4, 16, 64])
@pytest.mark.parametrize("dirty_frac", [0.0, 0.3, 1.0])
def test_solver_matches_walker_random_grid(cap, dirty_frac):
    rng = np.random.default_rng(7 + cap)
    for nlines in (2, cap // 2 + 1, cap * 2, 500):
        for n in (1, 50, 400):
            line_dirty = rng.random(nlines) < dirty_frac
            streams = [
                _random_stream(rng, n, nlines, line_dirty)
                for _ in range(3)
            ]
            _check_epochs(
                streams, cap,
                f"cap={cap} nl={nlines} df={dirty_frac} n={n}",
            )


def test_solver_matches_walker_csr_shaped():
    """Run-length streams: consecutive repeats of each line, the shape
    CSR row panels generate, with negative line ids mixed in."""
    rng = np.random.default_rng(3)
    for cap in (8, 64):
        base = np.repeat(np.arange(-20, 20, dtype=np.int64), 50)
        streams = []
        for _ in range(3):
            lines = base + int(rng.integers(0, 3)) * 100
            dirty = lines % 2 == 0
            emit = np.full(base.size, 7, dtype=np.int64)
            streams.append((lines, dirty, emit))
        _check_epochs(streams, cap, f"csr cap={cap}")


def test_solver_matches_walker_suffix_pass_regime():
    """Large-capacity, wide-reuse stream: most reuse windows hold
    somewhat more than ``cap`` distinct lines."""
    rng = np.random.default_rng(11)
    cap = 64
    nlines = 300
    line_dirty = rng.random(nlines) < 0.3
    streams = [
        _random_stream(rng, 20_000, nlines, line_dirty)
        for _ in range(2)
    ]
    _check_epochs(streams, cap, "suffix-pass cap=64 n=20000")


def test_dirty_line_touched_clean():
    """A dirty line given a clean touch stays dirty and moves to MRU,
    which reorders the drain victims."""
    lines = np.array([1, 2, 3, 1, 4, 5, 2, 6], dtype=np.int64)
    dirty = np.array([1, 1, 1, 0, 1, 1, 0, 1], dtype=bool)
    emit = np.full(lines.size, 3, dtype=np.int64)
    vrf = _check_epochs([(lines, dirty, emit)] * 3, 8, "clean touch",
                        high=3, low=1)
    assert vrf.manager_writebacks > 0


# -- the id form: chunk tables over the tiled arrays ------------------------


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("k", [16, 64])
def test_id_form_matches_line_form(walk, k):
    """The generators read ids in place through the chunk table and
    derive the lines in the walk; :func:`trace_epoch` takes the lines
    the address map gives.  Both leave the same trace, segments, tags
    and VRF counters, epoch after epoch."""
    rng = np.random.default_rng(k)
    for kernel in _KINDS:
        by_ids, by_lines = vrf_pe(kernel, k), vrf_pe(kernel, k)
        amap = by_lines.address_map
        for _ in range(3):
            r_ids, c_ids, table = csr_epoch(kernel, rng, 20, 40)
            idx = np.concatenate([
                np.arange(off, off + cnt) for off, cnt, _ in table.tolist()
            ]).astype(np.int64)
            lpr = by_lines.lines_per_row
            slots, live, dirty = (
                (2 * lpr, lpr, lpr) if kernel == "spmm"
                else (2 * lpr + 1, lpr + 1, 1)
            )
            with kernels(walk):
                got = observe(by_ids, GENERATE[kernel](by_ids, (
                    r_ids, c_ids, table,
                )))
                want = observe(by_lines, trace_epoch(
                    by_lines,
                    amap.dense_row_base_lines("rmatrix", r_ids[idx], k),
                    amap.dense_row_base_lines("cmatrix", c_ids[idx], k),
                    np.ascontiguousarray(table[:, 1]), table[:, 0].tolist(),
                    np.ascontiguousarray(table[:, 2])
                    if kernel == "sddmm" else None,
                    vectorized._elision_cadence(
                        by_lines.vrf, slots, live, dirty
                    ),
                ))
            # The line form leaves the tOp/vOp counts to its callers.
            assert got[:-1] == want[:-1]


def _corrupt_row(row, col, value):
    def corrupt(r_ids, c_ids, table):
        table[row, col] = value
    return corrupt


def _corrupt_id(name, at, value):
    def corrupt(r_ids, c_ids, table):
        (r_ids if name == "r" else c_ids)[table[1, 0] + at] = value
    return corrupt


@pytest.mark.parametrize("corrupt,match", [
    (_corrupt_row(1, 0, -1), "inside the ids"),
    (_corrupt_row(2, 1, -1), "inside the ids"),
    # The sparse stream, as long as the ids, refuses it first.
    (_corrupt_row(2, 0, SPARSE_NNZ), "exceeds region"),
    (_corrupt_row(1, 2, -3), "output offsets"),
    (_corrupt_id("r", 0, -1), "dense lines"),
    (_corrupt_id("c", 2, -5), "dense lines"),
    (_corrupt_id("c", 1, 2**62), "dense lines"),
], ids=["offset-negative", "count-negative", "past-end", "output-negative",
        "r-negative", "c-negative", "line-overflow"])
@pytest.mark.parametrize("walk", WALKS)
def test_chunk_table_is_checked_before_the_walk(corrupt, match, walk):
    """The compiled entry's first pass and the twin's check refuse the
    same tables and ids, on a warm PE, before anything is walked."""
    rng = np.random.default_rng(1)
    pe = vrf_pe("sddmm", 64, 8)
    r_ids, c_ids, table = csr_epoch("sddmm", rng, 10, 20, rows=8)
    with kernels(walk):
        GENERATE["sddmm"](pe, (r_ids, c_ids, table))
        before = observe(pe, None)
        corrupt(r_ids, c_ids, table)
        with pytest.raises(ValueError, match=match):
            GENERATE["sddmm"](pe, (r_ids, c_ids, table))
    assert observe(pe, None) == before


@pytest.mark.parametrize("table", [
    np.zeros((2, 2), np.int64), np.zeros((2, 3), np.int32),
    np.zeros((3, 2), np.int64).T,
], ids=["two-columns", "int32", "strided"])
def test_chunk_table_form_is_checked(table):
    e = np.zeros(4, dtype=np.int64)
    for walk in WALKS:
        pe = vrf_pe("spmm")
        with kernels(walk), pytest.raises((TypeError, ValueError)):
            GENERATE["spmm"](pe, (e, e, table))
