"""Differential check: the compiled PE-epoch trace generator vs the
scalar executors.

``generate_{spmm,sddmm}_epoch`` run one PE-epoch of trace generation
through the C entry in ``repro/native/vrf_walk.c``.  That entry
assembles the VRF access stream from each nonzero's ids, drops the
touches the elision argument (DESIGN.md section 7) proves invisible,
walks the vector register file and writes the trace.  The oracle is the
scalar executors, ``ProcessingElement.execute_{spmm,sddmm}_chunk``, run
over the same chunk table chunk by chunk on a memory system that
records every access they issue (``tests/walks.py``).  They walk every
touch through ``VectorRegisterFile.access``, so each comparison also
checks the elision argument.  The two must agree exactly on the trace
bytes, the chunk segments, the *ordered* resident tags that seed the
next epoch, the dirty count, all five VRF counters and the PE counters.
Every check runs several epochs on the same PE, so carried warm state
is covered, not only the cold start.

The generator has no Python twin: without the compiled library the
engine runs the scalar executors, so every case here needs the library.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core import vectorized
from tests.walks import (
    COLS,
    EXECUTE,
    GENERATE,
    OBSERVED,
    SPARSE_NNZ,
    chunk_parts,
    csr_epoch,
    observe,
    oracle_pe,
    vrf_pe,
)

_KINDS = ("spmm", "sddmm")


@pytest.fixture(autouse=True, scope="module")
def kernel_loaded():
    if native.vrf_epoch_kernel() is None:
        pytest.skip("compiled trace generator unavailable: nothing to compare")


# -- the compiled entry against the scalar executors -----------------------


def _check_parts(kernel, k, cap, parts_per_epoch, label, high=None,
                 low=None, cadence=None):
    """Run the same epochs ``(r_ids, c_ids, chunks)`` on two fresh PEs
    with the same VRF, one through the generator and one through the
    scalar executor, and assert exact agreement after every epoch.
    ``cadence`` forces the elision cadence the generator passes; by
    default it uses ``_elision_cadence``'s, the largest safe one."""
    label = f"{kernel} k={k} {label}"
    pe, oracle = (make(kernel, k, cap, high, low)
                  for make in (vrf_pe, oracle_pe))
    with pytest.MonkeyPatch.context() as mp:
        if cadence is not None:
            mp.setattr(vectorized, "_elision_cadence",
                       lambda *args, **kw: cadence)
        for ep, parts in enumerate(parts_per_epoch):
            got = observe(pe, GENERATE[kernel](pe, parts))
            want = observe(oracle, EXECUTE[kernel](oracle, parts))
            for name, wv, gv in zip(OBSERVED, want, got):
                assert gv == wv, f"{label} ep{ep}: {name} diverged"
    return pe


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


@pytest.mark.parametrize("cap", [1, 2])
def test_tiny_capacity(cap):
    rng = np.random.default_rng(cap)
    for kernel in _KINDS:
        for k in (16, 64):
            epochs = [csr_epoch(kernel, rng, 10, 12, rows=6, cols=6)
                      for _ in range(3)]
            _check_parts(kernel, k, cap, epochs, f"cap={cap}",
                         high=1, low=0)


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


def test_empty_stream_keeps_warm_state():
    rng = np.random.default_rng(5)
    e = np.zeros(0, dtype=np.int64)
    for kernel in _KINDS:
        empty = (e, e, np.zeros((3, 3), dtype=np.int64))
        warm = csr_epoch(kernel, rng, 20, 10, rows=30, cols=30)
        pe = _check_parts(kernel, 16, 8, [empty, warm, empty], "empty")
        assert pe.vrf.occupancy == 8


@pytest.mark.parametrize("cap", [8, 64])
def test_scattered_line_ids(cap):
    """Ids, and so lines, spread over the non-negative int64 range, not
    a dense region: their tag-table homes collide, so lookups, evictions
    and the removals that shift colliding entries all get exercised."""
    rng = np.random.default_rng(cap)
    ids = rng.integers(2**36, 2**58, size=4 * cap)
    # Disjoint line pools per operand, as the address map's regions are.
    r_pool, c_pool = ids[: 2 * cap], ids[2 * cap :]
    n = 4_000

    def epoch(kernel):
        r_ids = np.repeat(rng.choice(r_pool, size=n // 4), 4)
        c_ids = rng.choice(c_pool, size=n)
        parts = chunk_parts(kernel, r_ids, c_ids, [n // 2, n // 2], rng)
        if kernel == "sddmm":
            parts[2][:, 2] = rng.integers(0, 2**36, size=3)
        return parts

    for kernel in _KINDS:
        _check_parts(kernel, 16, cap, [epoch(kernel) for _ in range(3)],
                     f"scattered cap={cap}")


@pytest.mark.parametrize(
    "bad",
    [
        lambda r, c: (r.astype(np.int32), c),
        lambda r, c: (r[::2], c[::2]),
        lambda r, c: (r, c[:-1]),
        lambda r, c: (r.tolist(), c),
    ],
    ids=["ids-int32", "strided", "length", "list"],
)
def test_stream_is_validated_before_the_walk(bad):
    """The generator refuses malformed id arrays before any walk."""
    r_ids = np.arange(0, 40, 2, dtype=np.int64)
    c_ids = np.arange(1, 41, 2, dtype=np.int64)
    table = np.array([[0, 10, 0]], dtype=np.int64)
    pe = vrf_pe("spmm", 16, 4)
    before = observe(pe, None)
    with pytest.raises((TypeError, ValueError)):
        GENERATE["spmm"](pe, (*bad(r_ids, c_ids), table))
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


@settings(max_examples=150, deadline=None)
@given(_fused_cases())
def test_kernel_matches_oracle_on_any_stream(case):
    """Both primitives, every K the engine pads to 1-8 lines, VRFs of
    2-64 lines with any watermarks, chunk lists with empty chunks and
    runs across their bounds, the cadence forced to 1 or left at its
    maximum, warm state over three epochs."""
    kernel, k, cap, high, low, cadence, epochs = case
    _check_parts(kernel, k, cap, epochs,
                 f"cap={cap} high={high} low={low} cadence={cadence}",
                 high=high, low=low, cadence=cadence)


# -- the chunk table's checks ----------------------------------------------


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
def test_chunk_table_is_checked_before_the_walk(corrupt, match):
    """The compiled entry's first pass refuses bad tables and ids, on a
    warm PE, before anything is walked."""
    rng = np.random.default_rng(1)
    pe = vrf_pe("sddmm", 64, 8)
    r_ids, c_ids, table = csr_epoch("sddmm", rng, 10, 20, rows=8)
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
    pe = vrf_pe("spmm")
    with pytest.raises((TypeError, ValueError)):
        GENERATE["spmm"](pe, (e, e, table))
