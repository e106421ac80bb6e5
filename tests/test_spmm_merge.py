"""The compiled SpMM merge against its twin, ``np.add.at``.

``spmm_chunk_update`` scatters a chunk's scaled B rows into the float64
accumulator.  With the kernel library loaded it runs
``native/spmm_merge.c``; with the twin forced (``tests/walks.kernels``)
it runs ``np.add.at``.  The two must leave byte-identical accumulators
on every chunk, including those where the order of the additions is
visible in the result, and must refuse a bad chunk with the same error
before either writes anything.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import native
from repro.kernels.reference import spmm_chunk_update
from tests.walks import WALKS, kernels, segment


def _merge(walk, d_accum, r_ids, c_ids, vals, b64):
    """``d_accum`` after one merge on ``walk``, as bytes (a copy is
    merged, so the caller's array is left alone)."""
    d = d_accum.copy()
    with kernels(walk):
        spmm_chunk_update(d, r_ids, c_ids, vals, b64, segment(r_ids.shape[0]))
    return d.tobytes()


def _spread(rng, shape, lo, hi):
    """Signed values 2**e with e uniform in ``[lo, hi]``, a tenth of
    them signed zeros: sums of these depend on the order of addition."""
    x = np.ldexp(1.0, rng.integers(lo, hi + 1, size=shape))
    x *= rng.choice([-1.0, 1.0], size=shape)
    x[rng.random(shape) < 0.1] = 0.0
    zeros = x == 0.0
    x[zeros] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=shape))[zeros]
    return x


@st.composite
def chunks(draw):
    """(d_accum, r_ids, c_ids, vals, b64): few distinct rows, so most
    nonzeros repeat a row, K from 0 to 130, and a non-zero start."""
    rows = draw(st.integers(1, 6))
    b_rows = draw(st.integers(1, 9))
    k = draw(st.integers(0, 130))
    n = draw(st.integers(0, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    warm = draw(st.booleans())
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, rows, size=min(rows, 2))
    r_ids = rng.integers(0, rows, size=n)
    repeat = rng.random(n) < 0.8
    r_ids[repeat] = rng.choice(hot, size=int(repeat.sum()))
    c_ids = rng.integers(0, b_rows, size=n)
    vals = _spread(rng, n, -40, 40).astype(np.float32)
    b64 = _spread(rng, (b_rows, k), -60, 60)
    d_accum = (
        _spread(rng, (rows, k), -60, 60) if warm else np.zeros((rows, k))
    )
    return (d_accum, r_ids.astype(np.int64), c_ids.astype(np.int64),
            vals, b64)


def _needs_kernel():
    if native.kernels() is None:
        pytest.skip("the compiled kernels do not load on this host")


@given(chunks())
@settings(max_examples=150, deadline=None)
@example((np.zeros((1, 0)), np.zeros(3, np.int64), np.zeros(3, np.int64),
          np.ones(3, np.float32), np.zeros((1, 0))))
@example((np.ones((2, 4)), np.zeros(0, np.int64), np.zeros(0, np.int64),
          np.zeros(0, np.float32), np.ones((3, 4))))
def test_kernel_matches_twin(chunk):
    _needs_kernel()
    assert _merge("native", *chunk) == _merge("python", *chunk)


def test_order_of_additions_is_visible_and_kept():
    """One row hit by 2**60, 1 and -2**60, in that order, sums to 0;
    as 2**60, -2**60, 1 it sums to 1.  Both paths keep chunk order, and
    negative zeros survive where nothing positive is added."""
    r_ids = np.zeros(3, np.int64)
    c_ids = np.array([0, 1, 2], np.int64)
    vals = np.array([2.0**60, 1.0, -(2.0**60)], np.float32)
    b64 = np.ones((3, 2))
    b64[:, 1] = [-0.0, -0.0, 0.0]  # every product in column 1 is -0.0
    d_accum = np.array([[0.0, -0.0]])
    for walk in WALKS:
        d = d_accum.copy()
        with kernels(walk):
            spmm_chunk_update(d, r_ids, c_ids, vals, b64, segment(3))
        assert d[0, 0] == 0.0, walk
        assert np.signbit(d[0, 1]), walk
    flipped = d_accum.copy()
    order = np.array([0, 2, 1])
    spmm_chunk_update(flipped, r_ids, c_ids[order], vals[order], b64,
                      segment(3))
    assert flipped[0, 0] == 1.0


# -- the bounds rule: a bad chunk is refused whole, on either path ---------


def _good():
    return dict(
        d_accum=np.ones((4, 3)),
        r_ids=np.array([0, 3, 1], np.int64),
        c_ids=np.array([4, 0, 2], np.int64),
        vals=np.ones(3, np.float32),
        b64=np.ones((5, 3)),
        segments=segment(3),
    )


def _bad(**changes):
    args = _good()
    args.update(changes)
    return args


def _read_only(arr):
    arr.flags.writeable = False
    return arr


REJECTED = {
    "r_ids-dtype": (TypeError, _bad(r_ids=np.array([0, 3, 1], np.int32))),
    "c_ids-dtype": (TypeError, _bad(c_ids=np.array([4, 0, 2], np.uint64))),
    "vals-dtype": (TypeError, _bad(vals=np.ones(3))),
    "d_accum-dtype": (TypeError, _bad(d_accum=np.ones((4, 3), np.float32))),
    "b64-dtype": (TypeError, _bad(b64=np.ones((5, 3), np.float32))),
    "r_ids-list": (TypeError, _bad(r_ids=[0, 3, 1])),
    "r_ids-2d": (ValueError, _bad(r_ids=np.zeros((3, 1), np.int64))),
    "d_accum-1d": (ValueError, _bad(d_accum=np.ones(12))),
    "d_accum-read-only": (
        ValueError, _bad(d_accum=_read_only(np.ones((4, 3)))),
    ),
    "b64-strided": (ValueError, _bad(b64=np.ones((5, 6))[:, ::2])),
    "vals-strided": (ValueError, _bad(vals=np.ones(6, np.float32)[::2])),
    "lengths": (ValueError, _bad(vals=np.ones(2, np.float32))),
    "k-mismatch": (ValueError, _bad(b64=np.ones((5, 4)))),
    "r_ids-negative": (IndexError, _bad(r_ids=np.array([0, 3, -1]))),
    "r_ids-past-rows": (IndexError, _bad(r_ids=np.array([0, 3, 4]))),
    "c_ids-negative": (IndexError, _bad(c_ids=np.array([4, 0, -2]))),
    "c_ids-past-b-rows": (IndexError, _bad(c_ids=np.array([4, 0, 5]))),
}


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("case", sorted(REJECTED))
def test_bad_chunk_is_refused_before_any_write(case, walk):
    error, args = REJECTED[case]
    d = args["d_accum"]
    before = np.array(d, copy=True)
    with kernels(walk), pytest.raises(error):
        spmm_chunk_update(**args)
    assert np.array_equal(d, before) and d.tobytes() == before.tobytes()


@pytest.mark.parametrize("index", ["r_ids", "c_ids"])
def test_kernel_refuses_bad_index_itself(index):
    """The C loop checks every index before it writes, behind the
    wrapper's own check: called directly it raises ``IndexError`` and
    leaves the accumulator untouched."""
    _needs_kernel()
    args = _good()
    args[index] = np.array([0, 1, 99], np.int64)
    before = args["d_accum"].copy()
    with pytest.raises(IndexError):
        native.kernels().spmm_merge(**args)
    assert np.array_equal(args["d_accum"], before)


# -- one call per epoch: the segment table ---------------------------------


@st.composite
def tables(draw):
    """A chunk from :func:`chunks` and a table of segments over it: any
    ranges, in any order, overlapping or empty."""
    d_accum, r_ids, c_ids, vals, b64 = draw(chunks())
    n = r_ids.shape[0]
    rows = draw(st.lists(
        st.tuples(st.integers(0, n), st.integers(0, n)), max_size=6,
    ))
    segs = np.array(
        [(min(a, b), abs(a - b), 0) for a, b in rows], dtype=np.int64
    ).reshape(-1, 3)
    return d_accum, r_ids, c_ids, vals, b64, segs


@given(tables())
@settings(max_examples=150, deadline=None)
def test_a_table_merges_as_its_segments_one_by_one(case):
    """One call over a segment table leaves the bytes of one call per
    segment in table order, on both paths."""
    d_accum, r_ids, c_ids, vals, b64, segs = case
    want = d_accum.copy()
    for off, cnt, _ in segs.tolist():
        spmm_chunk_update(want, r_ids[off : off + cnt],
                          c_ids[off : off + cnt], vals[off : off + cnt], b64,
                          segment(cnt))
    for walk in WALKS:
        d = d_accum.copy()
        with kernels(walk):
            spmm_chunk_update(d, r_ids, c_ids, vals, b64, segs)
        assert d.tobytes() == want.tobytes(), walk


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("segs,bad_r", [
    ([[0, 2, 0], [2, 2, 0]], None),
    ([[0, 2, 0], [-1, 1, 0]], None),
    ([[0, 2, 0], [1, -1, 0]], None),
    ([[0, 2, 0], [2, 1, 0]], 9),
], ids=["past-end", "offset-negative", "count-negative", "index-in-last"])
def test_bad_table_is_refused_before_any_write(walk, segs, bad_r):
    """A segment outside the ids, or a bad index in the last segment,
    refuses the whole table: the segment before it writes nothing."""
    args = _good()
    args["segments"] = np.array(segs, dtype=np.int64)
    if bad_r is not None:
        args["r_ids"][2] = bad_r
    d = args["d_accum"]
    before = d.copy()
    with kernels(walk), pytest.raises(IndexError):
        spmm_chunk_update(**args)
    assert d.tobytes() == before.tobytes()


@pytest.mark.parametrize("table", [
    np.zeros((2, 2), np.int64), np.zeros((2, 3), np.int32),
    np.zeros(3, np.int64), np.zeros((3, 2), np.int64).T,
], ids=["two-columns", "int32", "1-d", "strided"])
def test_table_form_is_checked(table):
    args = _good()
    args["segments"] = table
    for walk in WALKS:
        with kernels(walk), pytest.raises((TypeError, ValueError)):
            spmm_chunk_update(**args)
