"""Differential check: the compiled VRF walk vs its Python twin.

``walk_vrf`` runs trace generation's VRF walk through the C kernel in
``repro/native/vrf_walk.c`` when it loads; ``_run_vrf_stream`` is its
Python twin, the reference it is held to.  The two must agree exactly
on every output: emitted lines, ops and access positions, all five VRF
counters, the dirty count, and the *ordered* resident-tag map that
seeds the next epoch.  Every check runs several epochs on the same pair
of register files, so carried warm state is covered, not only the cold
start.

The streams include what the NumPy epoch solver that preceded the
kernel had to refuse: a dirty line given a clean touch, and reuse
windows hovering around the capacity.  Edge geometries (capacity 1 and
2, ``high == low``, ``low == 0``, a drain on every access) and empty
streams are covered explicitly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.vectorized import _OP_NONE, _run_vrf_stream, walk_vrf
from repro.core.vrf import VectorRegisterFile

_OP_STORE = 1000

_VRF_STATE = (
    "tag_hits",
    "tag_misses",
    "evictions",
    "eviction_writebacks",
    "manager_writebacks",
    "_dirty_count",
)


@pytest.fixture(autouse=True)
def _kernel_loaded():
    if native.vrf_walk_kernel() is None:
        pytest.skip("compiled VRF walk unavailable: nothing to compare")


def _vrf(cap, high=None, low=None):
    """A VRF with the paper's 25%/15% watermarks, or explicit ones
    (set directly, so geometries the constructor rejects — capacity 1,
    ``high == 0`` — can be walked too)."""
    vrf = VectorRegisterFile(max(cap, 2), 0.25, 0.15)
    vrf.num_registers = cap
    if high is not None:
        vrf._high = high
    if low is not None:
        vrf._low = low
    return vrf


def _random_stream(rng, n, nlines, line_dirty, none_frac=0.1):
    lines = rng.integers(0, nlines, size=n).astype(np.int64)
    dirty = line_dirty[lines]
    emit = rng.integers(0, 32, size=n).astype(np.int64)
    emit[rng.random(n) < none_frac] = _OP_NONE
    return lines, dirty, emit


def _check_epochs(streams, cap, label, high=None, low=None):
    """Feed the same epoch streams through twin and kernel, asserting
    exact agreement after every epoch."""
    vrf_twin = _vrf(cap, high, low)
    vrf_native = _vrf(cap, high, low)
    for ep, (lines, dirty, emit) in enumerate(streams):
        want = _run_vrf_stream(vrf_twin, lines, dirty, emit, _OP_STORE)
        got = walk_vrf(vrf_native, lines, dirty, emit, _OP_STORE)
        for name, w, g in zip(("lines", "ops", "positions"), want, got):
            np.testing.assert_array_equal(
                g, w, err_msg=f"{label} ep{ep}: emitted {name}"
            )
        assert np.all(np.diff(got[2]) >= 0), (
            f"{label} ep{ep}: emit positions not monotone"
        )
        for attr in _VRF_STATE:
            assert getattr(vrf_twin, attr) == getattr(vrf_native, attr), (
                f"{label} ep{ep}: {attr} "
                f"{getattr(vrf_twin, attr)} != {getattr(vrf_native, attr)}"
            )
        # Order matters: insertion order is the eviction order the next
        # epoch starts from.
        assert (
            list(vrf_twin._tags.items()) == list(vrf_native._tags.items())
        ), f"{label} ep{ep}: resident tags diverged"
        assert all(type(d) is bool for d in vrf_native._tags.values())
    return vrf_native


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
    CSR row panels actually generate."""
    rng = np.random.default_rng(3)
    for cap in (8, 64):
        base = np.repeat(np.arange(40, dtype=np.int64), 50)
        streams = []
        for _ in range(3):
            lines = base + int(rng.integers(0, 3)) * 100
            dirty = lines % 2 == 0
            emit = np.full(base.size, 7, dtype=np.int64)
            streams.append((lines, dirty, emit))
        _check_epochs(streams, cap, f"csr cap={cap}")


def test_solver_matches_walker_suffix_pass_regime():
    """Large-capacity, wide-reuse stream: most reuse windows hold
    somewhat more than ``cap`` distinct lines, the regime the epoch
    solver had to probe window by window."""
    rng = np.random.default_rng(11)
    cap = 64
    nlines = 300
    line_dirty = rng.random(nlines) < 0.3
    streams = [
        _random_stream(rng, 20_000, nlines, line_dirty)
        for _ in range(2)
    ]
    _check_epochs(streams, cap, "suffix-pass cap=64 n=20000")


@pytest.mark.parametrize("cap", [8, 64])
def test_scattered_line_ids(cap):
    """Line ids spread over the whole int64 range, not a dense region:
    their tag-table homes collide, so lookups, evictions and the
    removals that shift colliding entries all get exercised."""
    rng = np.random.default_rng(cap)
    pool = rng.integers(-(2**62), 2**62, size=2 * cap)
    line_dirty = rng.random(pool.size) < 0.3
    streams = []
    for _ in range(3):
        idx = rng.integers(0, pool.size, size=30_000)
        emit = rng.integers(0, 32, size=idx.size).astype(np.int64)
        streams.append((pool[idx].astype(np.int64), line_dirty[idx], emit))
    _check_epochs(streams, cap, f"scattered cap={cap}")


def test_dirty_line_touched_clean():
    """A dirty line given a clean touch stays dirty and moves to MRU,
    which reorders the drain victims (the epoch solver refused such
    streams)."""
    lines = np.array([1, 2, 3, 1, 4, 5, 2, 6], dtype=np.int64)
    dirty = np.array([1, 1, 1, 0, 1, 1, 0, 1], dtype=bool)
    emit = np.full(lines.size, 3, dtype=np.int64)
    vrf = _check_epochs([(lines, dirty, emit)] * 3, 8, "clean touch",
                        high=3, low=1)
    assert vrf.manager_writebacks > 0


@pytest.mark.parametrize("cap", [1, 2])
def test_tiny_capacity(cap):
    rng = np.random.default_rng(cap)
    line_dirty = rng.random(6) < 0.5
    streams = [_random_stream(rng, 300, 6, line_dirty) for _ in range(3)]
    _check_epochs(streams, cap, f"cap={cap}", high=1, low=0)


@pytest.mark.parametrize("high,low", [(4, 4), (4, 0), (0, 0)])
def test_watermark_edges(high, low):
    """``high == low``, ``low == 0`` and ``high == 0`` (every dirtying
    access drains)."""
    rng = np.random.default_rng(high * 10 + low)
    line_dirty = rng.random(40) < 0.6
    streams = [_random_stream(rng, 500, 40, line_dirty) for _ in range(3)]
    vrf = _check_epochs(streams, 16, f"high={high} low={low}",
                        high=high, low=low)
    assert vrf.manager_writebacks > 0


def test_drain_on_every_access():
    n = 200
    lines = np.arange(n, dtype=np.int64) % 7
    dirty = np.ones(n, dtype=bool)
    emit = np.full(n, _OP_NONE, dtype=np.int64)
    vrf = _check_epochs([(lines, dirty, emit)] * 2, 4, "drain every access",
                        high=0, low=0)
    assert vrf.manager_writebacks == 2 * n


def test_empty_stream_keeps_warm_state():
    rng = np.random.default_rng(5)
    line_dirty = rng.random(30) < 0.5
    empty = (
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=bool),
        np.zeros(0, dtype=np.int64),
    )
    warm = _random_stream(rng, 200, 30, line_dirty)
    vrf = _check_epochs([empty, warm, empty], 8, "empty")
    assert vrf.occupancy == 8


@pytest.mark.parametrize(
    "bad",
    [
        lambda l, d, e: (l.astype(np.int32), d, e),
        lambda l, d, e: (l, d.astype(np.uint8), e),
        lambda l, d, e: (l[::2], d[::2], e[::2]),
        lambda l, d, e: (l, d[:-1], e),
        lambda l, d, e: (l.tolist(), d, e),
    ],
    ids=["lines-int32", "dirty-uint8", "strided", "length", "list"],
)
def test_stream_is_validated_before_the_walk(bad):
    lines = np.arange(10, dtype=np.int64)
    dirty = np.zeros(10, dtype=bool)
    emit = np.zeros(10, dtype=np.int64)
    vrf = _vrf(4)
    with pytest.raises((TypeError, ValueError)):
        walk_vrf(vrf, *bad(lines, dirty, emit), _OP_STORE)
    assert vrf.tag_hits == vrf.tag_misses == 0


@st.composite
def _epochs(draw):
    cap = draw(st.integers(1, 12))
    high = draw(st.integers(0, cap))
    low = draw(st.integers(0, high))
    # Reuse windows near capacity: cycle over a pool a few lines
    # smaller or larger than cap, with random detours.
    pool = max(1, cap + draw(st.integers(-2, 3)))
    streams = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 120))
        base = np.arange(n, dtype=np.int64) % pool
        detour = np.array(
            draw(st.lists(st.integers(0, 3 * pool), min_size=n, max_size=n)),
            dtype=np.int64,
        )
        use_detour = np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            dtype=bool,
        )
        lines = np.where(use_detour, detour, base)
        # Per-access dirtiness: the same line is touched dirty and clean.
        dirty = np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            dtype=bool,
        )
        emit = np.array(
            draw(st.lists(st.sampled_from([_OP_NONE, 0, 5]),
                          min_size=n, max_size=n)),
            dtype=np.int64,
        )
        streams.append((lines, dirty, emit))
    return cap, high, low, streams


@settings(max_examples=200, deadline=None)
@given(_epochs())
def test_kernel_matches_twin_on_any_stream(case):
    cap, high, low, streams = case
    _check_epochs(streams, cap, f"cap={cap} high={high} low={low}",
                  high=high, low=low)
