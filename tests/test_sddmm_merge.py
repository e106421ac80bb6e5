"""The compiled SDDMM merge against its twin, and the summation rule.

``sddmm_chunk_vals`` writes one scaled dot product per nonzero into the
chunk's contiguous output slots.  With the kernel library loaded it
runs ``native/sddmm_merge.c``; with the twin forced
(``tests/walks.kernels``) it runs the same sum as a NumPy loop over the
K columns.  The rule (DESIGN.md section 10) is a left-to-right sum over
K from 0.0, one rounded multiply and one rounded add per term, so both
paths, and every host, give the same bytes; and a bad chunk is refused
with the same error before either path writes anything.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import native
from repro.kernels.reference import sddmm_chunk_vals
from tests.walks import WALKS, kernels, segment


def _merge(walk, out_vals, out_base, r_ids, c_ids, vals, b64, c64):
    """``out_vals`` after one merge on ``walk``, as bytes (a copy is
    merged, so the caller's array is left alone)."""
    out = out_vals.copy()
    with kernels(walk):
        sddmm_chunk_vals(out, r_ids, c_ids, vals, b64, c64,
                         segment(r_ids.shape[0], out_base))
    return out.tobytes()


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
    """(out_vals, out_base, r_ids, c_ids, vals, b64, c64): K from 0 to
    130, order-sensitive operands, and the chunk somewhere inside a
    longer output array."""
    b_rows = draw(st.integers(1, 9))
    c_rows = draw(st.integers(1, 9))
    k = draw(st.integers(0, 130))
    n = draw(st.integers(0, 300))
    pad = draw(st.integers(0, 40))
    out_base = draw(st.integers(0, pad))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (
        rng.standard_normal(n + pad),
        out_base,
        rng.integers(0, b_rows, size=n).astype(np.int64),
        rng.integers(0, c_rows, size=n).astype(np.int64),
        _spread(rng, n, -40, 40).astype(np.float32),
        _spread(rng, (b_rows, k), -60, 60),
        _spread(rng, (c_rows, k), -60, 60),
    )


def _needs_kernel():
    if native.kernels() is None:
        pytest.skip("the compiled kernels do not load on this host")


@given(chunks())
@settings(max_examples=150, deadline=None)
@example((np.ones(3), 0, np.zeros(3, np.int64), np.zeros(3, np.int64),
          np.ones(3, np.float32), np.zeros((1, 0)), np.zeros((1, 0))))
@example((np.ones(4), 4, np.zeros(0, np.int64), np.zeros(0, np.int64),
          np.zeros(0, np.float32), np.ones((2, 5)), np.ones((3, 5))))
def test_kernel_matches_twin(chunk):
    _needs_kernel()
    assert _merge("native", *chunk) == _merge("python", *chunk)


@pytest.mark.parametrize("k", [1, 3, 16, 17, 64])
def test_mixed_sign_sums_are_the_same_bytes(k):
    """Normal operands of both signs, as a real SDDMM has: the kernel
    and the twin agree byte for byte at every K, including the ones
    around a SIMD width, where a vectorised sum would reassociate."""
    _needs_kernel()
    rng = np.random.default_rng(k)
    n = 20_000
    chunk = (
        np.zeros(n + 5), 5,
        rng.integers(0, 300, size=n), rng.integers(0, 200, size=n),
        rng.standard_normal(n).astype(np.float32),
        rng.standard_normal((300, k)), rng.standard_normal((200, k)),
    )
    assert _merge("native", *chunk) == _merge("python", *chunk)


@pytest.mark.parametrize("walk", WALKS)
def test_sum_runs_left_to_right(walk):
    """The rule itself, on both paths: ``s = 0.0; s += b[j] * c[j]`` for
    j in order, then ``vals[i] * s``, checked against Python floats on
    mixed-sign rows, and on one row whose sum shows its order: 1, then
    2**60, then -2**60 sums to 0 left to right; any order adding the
    1 last gives 1."""
    rng = np.random.default_rng(7)
    b64 = rng.standard_normal((4, 17))
    c64 = rng.standard_normal((5, 17))
    b64[3, :3] = [1.0, 2.0**60, -(2.0**60)]
    b64[3, 3:] = 0.0
    c64[4] = 1.0
    r_ids = np.array([0, 1, 2, 3, 3], np.int64)
    c_ids = np.array([4, 0, 3, 4, 1], np.int64)
    vals = np.array([1.5, -2.0, 0.25, 1.0, 3.0], np.float32)
    out = np.zeros(8)
    with kernels(walk):
        sddmm_chunk_vals(out, r_ids, c_ids, vals, b64, c64, segment(5, 2))
    want = []
    for r, c, v in zip(r_ids.tolist(), c_ids.tolist(), vals.tolist()):
        s = 0.0
        for x, y in zip(b64[r].tolist(), c64[c].tolist()):
            s += x * y
        want.append(v * s)
    assert out[2:7].tolist() == want
    assert out[5] == 0.0
    assert out[[0, 1, 7]].tolist() == [0.0, 0.0, 0.0]


# -- the bounds rule: a bad chunk is refused whole, on either path ---------


def _good():
    return dict(
        out_vals=np.full(6, 9.0),
        r_ids=np.array([0, 3, 1], np.int64),
        c_ids=np.array([4, 0, 2], np.int64),
        vals=np.ones(3, np.float32),
        b64=np.ones((4, 3)),
        c64=np.ones((5, 3)),
        segments=segment(3, 2),
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
    "out_vals-dtype": (TypeError, _bad(out_vals=np.ones(6, np.float32))),
    "b64-dtype": (TypeError, _bad(b64=np.ones((4, 3), np.float32))),
    "c64-dtype": (TypeError, _bad(c64=np.ones((5, 3), np.int64))),
    "r_ids-list": (TypeError, _bad(r_ids=[0, 3, 1])),
    "r_ids-2d": (ValueError, _bad(r_ids=np.zeros((3, 1), np.int64))),
    "out_vals-2d": (ValueError, _bad(out_vals=np.ones((6, 1)))),
    "out_vals-read-only": (
        ValueError, _bad(out_vals=_read_only(np.ones(6))),
    ),
    "out_vals-strided": (ValueError, _bad(out_vals=np.ones(12)[::2])),
    "b64-strided": (ValueError, _bad(b64=np.ones((4, 6))[:, ::2])),
    "c64-strided": (ValueError, _bad(c64=np.ones((5, 6))[:, ::2])),
    "c_ids-strided": (
        ValueError, _bad(c_ids=np.array([4, 9, 0, 9, 2, 9])[::2]),
    ),
    "lengths": (ValueError, _bad(vals=np.ones(2, np.float32))),
    "k-mismatch": (ValueError, _bad(c64=np.ones((5, 4)))),
    "base-negative": (IndexError, _bad(segments=segment(3, -1))),
    "base-past-end": (IndexError, _bad(segments=segment(3, 4))),
    "r_ids-negative": (IndexError, _bad(r_ids=np.array([0, 3, -1]))),
    "r_ids-past-b-rows": (IndexError, _bad(r_ids=np.array([0, 4, 1]))),
    "c_ids-negative": (IndexError, _bad(c_ids=np.array([4, 0, -2]))),
    "c_ids-past-c-rows": (IndexError, _bad(c_ids=np.array([5, 0, 2]))),
}


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("case", sorted(REJECTED))
def test_bad_chunk_is_refused_before_any_write(case, walk):
    error, args = REJECTED[case]
    out = args["out_vals"]
    before = np.array(out, copy=True)
    with kernels(walk), pytest.raises(error):
        sddmm_chunk_vals(**args)
    assert out.tobytes() == before.tobytes()


@pytest.mark.parametrize("case", [
    ("r_ids", np.array([0, 1, 4], np.int64)),
    ("c_ids", np.array([0, -1, 2], np.int64)),
    ("segments", segment(3, 4)),
    ("segments", segment(3, -1)),
])
def test_kernel_refuses_bad_index_itself(case):
    """The C loop checks the output range and every index before it
    writes, behind the wrapper's own check: called directly it raises
    ``IndexError`` and leaves the output untouched."""
    _needs_kernel()
    name, value = case
    args = _good()
    args[name] = value
    before = args["out_vals"].copy()
    with pytest.raises(IndexError):
        native.kernels().sddmm_merge(**args)
    assert args["out_vals"].tobytes() == before.tobytes()


# -- one call per epoch: the segment table ---------------------------------


@st.composite
def tables(draw):
    """A chunk from :func:`chunks` and a table of segments over it, in
    any order, each writing its own output slots (as the tiled layout's
    chunks do); ``out`` is long enough for them all."""
    out_vals, _, r_ids, c_ids, vals, b64, c64 = draw(chunks())
    n = r_ids.shape[0]
    rows = draw(st.lists(
        st.tuples(st.integers(0, n), st.integers(0, n), st.integers(0, 20)),
        max_size=6,
    ))
    segs, at = [], 0
    for a, b, gap in rows:
        at += gap
        segs.append((min(a, b), abs(a - b), at))
        at += abs(a - b)
    out = np.resize(out_vals, at + 5) if out_vals.size else np.zeros(at + 5)
    return out, r_ids, c_ids, vals, b64, c64, np.array(
        segs, dtype=np.int64
    ).reshape(-1, 3)


@given(tables(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_a_table_merges_as_its_segments_one_by_one(case, base):
    """One call over a segment table leaves the bytes of one call per
    segment, each at the base plus its output start, on both paths."""
    out_vals, r_ids, c_ids, vals, b64, c64, segs = case
    out_vals = np.concatenate([out_vals, np.zeros(base)])
    want = out_vals.copy()
    for off, cnt, at in segs.tolist():
        part = slice(off, off + cnt)
        sddmm_chunk_vals(want, r_ids[part], c_ids[part], vals[part], b64,
                         c64, segment(cnt, base + at))
    shifted = segs + np.array([0, 0, base], dtype=np.int64)
    for walk in WALKS:
        out = out_vals.copy()
        with kernels(walk):
            sddmm_chunk_vals(out, r_ids, c_ids, vals, b64, c64, shifted)
        assert out.tobytes() == want.tobytes(), walk


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("segs,bad_c", [
    ([[0, 2, 2], [2, 2, 4]], None),
    ([[0, 2, 2], [-1, 1, 4]], None),
    ([[0, 2, 2], [2, 1, -1]], None),
    ([[0, 2, 2], [2, 1, 6]], None),
    ([[0, 2, 2], [2, 1, 4]], 7),
], ids=["past-end", "offset-negative", "output-negative", "output-past-end",
        "index-in-last"])
def test_bad_table_is_refused_before_any_write(walk, segs, bad_c):
    """A segment outside the ids or the output, or a bad index in the
    last segment, refuses the whole table: the segment before it writes
    nothing."""
    args = _good()  # 6 output slots
    args["segments"] = np.array(segs, dtype=np.int64)
    if bad_c is not None:
        args["c_ids"][2] = bad_c
    out = args["out_vals"]
    before = out.copy()
    with kernels(walk), pytest.raises(IndexError):
        sddmm_chunk_vals(**args)
    assert out.tobytes() == before.tobytes()
