"""Compiled kernels, built with the host's gcc on first use.

Five kernels live here, built into one library:

- ``vrf_walk.c``, one PE-epoch of trace generation behind
  :mod:`repro.core.vectorized`: it reads the epoch's chunks of ids in
  place through a chunk table, derives each nonzero's dense lines,
  checks them, drops the touches the elision argument (DESIGN.md
  section 7) proves invisible, walks the vector register file exactly
  and writes the chunks' traces.  It has no Python twin: its
  reference is the scalar executors
  (``ProcessingElement.execute_{spmm,sddmm}_chunk``), which walk every
  touch, so every comparison with them also checks the elision
  argument, and without the library the engine runs them instead;
- ``replay_epoch.c``, one epoch of trace replay through the whole
  memory hierarchy behind
  :func:`repro.memory.replay_array.replay_trace_array`: every STLB, L1,
  L2, the LLC, and every BBF stream buffer and victim cache walks once
  over its own event stream, the levels' events merged along the
  epoch's dispatch runs, each run's arrays read in place.  The
  residents live in C between epochs, one :class:`ReplayState` per
  structure, made from the caches' dicts on first use and turned back
  into dicts only when they are read.  Its reference is the scalar
  oracle,
  :meth:`repro.memory.hierarchy.MemorySystem.replay_trace_scalar`, run
  by run, which is also the path taken without the library.  The same
  call checks every run's lines and ops in the pass that counts them
  (its twin, and the check without the library, is
  :func:`_trace_refusal`, run by run) and folds the levels into each
  PE's per-level tallies before it returns (held to
  :func:`repro.memory.hierarchy.level_tally`);
- ``spmm_merge.c``, the SpMM output merge behind
  :func:`repro.kernels.reference.spmm_chunk_update`, one call per epoch
  over its dispatch-ordered segment table; its twin is the
  ``np.add.at`` scatter it transcribes, segment by segment;
- ``sddmm_merge.c``, the SDDMM output merge behind
  :func:`repro.kernels.reference.sddmm_chunk_vals`, the same way: one
  dot product per nonzero, summed left to right over K; its twin is
  the same sum as a NumPy loop over the K columns;
- ``tile.c``, the tiled layout behind
  :func:`repro.sparse.tiled.tile_matrix`: one composite-key pass checks
  the indices, finds input already in tiled order (which keeps its own
  arrays) and writes the tile table, else a stable LSD radix sort into
  new arrays; its twin is ``np.lexsort``.

Each kernel's reference (for generation and the replay, the oracle
itself) is also the path taken when the library does not load; results
are identical either way, only slower.

Build, cache and trust rules:

- Nothing compiles at import.  The first :func:`kernels` call (a
  walk, a merge or a tiling) builds the library and the outcome holds
  for the rest of the process.
- Builds live in one per-user, host-wide directory,
  ``<tempfile.gettempdir()>/repro-native-<uid>/``, created with mode
  0700.  A directory that is a symlink, not a directory, owned by
  another uid or writable by group or others is refused: another
  user's library is never loaded.
- The library name carries a sha256 over every C source, the
  ``gcc --version`` output, the compiler flags and the platform.  A
  sidecar ``.sha256`` file holds the digest of the library's bytes; a
  library that does not match it (truncated, replaced) is rebuilt, not
  loaded.
- A build goes to a private temporary file, is loaded from there and is
  then published with ``os.replace``, so no process loads a partly
  written file and concurrent cold starts just race to publish
  identical builds.
- With no gcc on ``PATH``, an unsafe directory or a failed build, the
  loader issues one ``RuntimeWarning`` and callers take the Python
  paths.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
import weakref
from array import array
from itertools import chain
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

SOURCES = tuple(
    Path(__file__).with_name(name)
    for name in (
        "vrf_walk.c", "replay_epoch.c", "spmm_merge.c", "sddmm_merge.c",
        "tile.c",
    )
)
# -ffp-contract=off: no fused multiply-add may skip a rounding the
# NumPy twins perform (the merges' products).  -O3 reorders no
# floating-point operation; the flags that would (-ffast-math and the
# like) or that tie a build to one CPU (-march) stay out
# (tests/test_source_rules.py).
FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")


class Kernels(NamedTuple):
    """The library's bound entry points."""

    vrf_epoch: Callable
    replay_epoch: Callable
    live_states: Callable[[], int]
    spmm_merge: Callable
    sddmm_merge: Callable
    tile: Callable


_lock = threading.Lock()
_tried = False
_kernels: Optional[Kernels] = None


class NativeUnavailable(RuntimeError):
    """The kernel cannot be built or loaded on this host."""


def build_dir() -> Path:
    """The per-user, host-wide build directory (not created here)."""
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def _safe_dir(path: Path) -> Path:
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    st = os.lstat(path)
    if stat.S_ISLNK(st.st_mode) or not stat.S_ISDIR(st.st_mode):
        raise NativeUnavailable(f"{path} is not a plain directory")
    if st.st_uid != os.getuid():
        raise NativeUnavailable(f"{path} is owned by uid {st.st_uid}")
    if st.st_mode & 0o022:
        raise NativeUnavailable(f"{path} is writable by other users")
    return path


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _publish_text(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=path.parent)
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _load_library() -> ctypes.CDLL:
    gcc = shutil.which("gcc")
    if gcc is None:
        raise NativeUnavailable("no gcc on PATH")
    directory = _safe_dir(build_dir())
    version = subprocess.run(
        [gcc, "--version"], capture_output=True, check=True, timeout=60
    ).stdout
    key = hashlib.sha256()
    for part in (
        *(src.read_bytes() for src in SOURCES), version,
        " ".join(FLAGS).encode(),
        f"{sys.platform}-{platform.machine()}".encode(),
    ):
        key.update(hashlib.sha256(part).digest())
    lib_path = directory / f"kernels-{key.hexdigest()[:32]}.so"
    sum_path = lib_path.with_suffix(".sha256")
    try:
        if _digest(lib_path) == sum_path.read_text().strip():
            return ctypes.CDLL(str(lib_path))
    except OSError:
        pass  # missing, unreadable or not loadable: rebuild

    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        proc = subprocess.run(
            [gcc, *FLAGS, "-o", tmp, *map(str, SOURCES)],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            raise NativeUnavailable(f"gcc failed: {proc.stderr.strip()}")
        digest = _digest(Path(tmp))
        lib = ctypes.CDLL(tmp)  # the bytes just built and hashed
        os.replace(tmp, lib_path)
        _publish_text(sum_path, digest)
        return lib
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def kernels() -> Optional[Kernels]:
    """The compiled kernels, or ``None`` when they cannot load here.

    Builds (or finds) the library on the first call of the process;
    the outcome, and at most one warning, hold for the rest of it."""
    global _tried, _kernels
    if _tried:
        return _kernels
    with _lock:
        if not _tried:
            try:
                lib = _load_library()
                _kernels = Kernels(
                    _bind_vrf_epoch(lib), _bind_replay_epoch(lib),
                    lib.repro_state_live, _bind_spmm_merge(lib),
                    _bind_sddmm_merge(lib), _bind_tile(lib),
                )
            except (NativeUnavailable, OSError, subprocess.SubprocessError) as exc:
                warnings.warn(
                    f"compiled kernels unavailable ({exc}); using the "
                    "Python paths: same results, slower",
                    RuntimeWarning,
                    stacklevel=3,
                )
            _tried = True
    return _kernels


def vrf_epoch_kernel() -> Optional[Callable]:
    """The compiled PE-epoch trace generator, or ``None`` (see
    :func:`kernels`)."""
    k = kernels()
    return k.vrf_epoch if k is not None else None


def replay_epoch_kernel() -> Optional[Callable]:
    """The compiled epoch replay, or ``None`` (see :func:`kernels`)."""
    k = kernels()
    return k.replay_epoch if k is not None else None


def kernels_impl() -> Optional[str]:
    """``"native"`` or ``"python"``: which kernels this process uses, or
    ``None`` when none has run in it yet (nothing is built for the
    answer)."""
    if not _tried:
        return None
    return "native" if _kernels is not None else "python"


def _require(name: str, arr, dtype, ndim: int = 1) -> None:
    """``arr`` must be a C-contiguous ``ndim``-D ndarray of ``dtype``."""
    if not isinstance(arr, np.ndarray) or arr.dtype != dtype:
        raise TypeError(f"{name} must be a {np.dtype(dtype)} ndarray")
    if arr.ndim != ndim or not arr.flags.c_contiguous:
        raise ValueError(f"{name} must be {ndim}-D and C-contiguous")


def check_epoch(
    r_ids: np.ndarray,
    c_ids: np.ndarray,
    chunks: np.ndarray,
    lpr: int,
    stride: int,
    cadence: int,
    cap: int,
    n_resident: int,
) -> None:
    """Validate the form of one PE-epoch of trace generation before any
    walk: ``r_ids``/``c_ids`` 1-D C-contiguous int64 of one length;
    ``chunks`` a C-contiguous int64 ``(chunks, 3)`` table of (input
    offset, count, output start); ``lpr``, ``stride`` and ``cadence`` at
    least 1; a VRF of ``1 <= cap < 2**31`` lines holding at most ``cap``
    residents.  The values are the compiled walk's first pass to check
    (:data:`_EPOCH_REFUSALS`)."""
    _require("r_ids", r_ids, np.int64)
    _require("c_ids", c_ids, np.int64)
    _require("chunks", chunks, np.int64, 2)
    if chunks.shape[1] != 3:
        raise ValueError("chunks must be (input offset, count, output start)")
    if c_ids.shape[0] != r_ids.shape[0]:
        raise ValueError("r_ids and c_ids differ in length")
    if min(lpr, stride, cadence) < 1:
        raise ValueError(
            "lines per row, id stride and cadence must be at least 1"
        )
    if not 1 <= cap < 2**31 or n_resident > cap:
        raise ValueError(f"{n_resident} residents in a {cap}-line VRF")


_EPOCH_REFUSALS = {
    4: "chunks must be non-negative ranges inside the ids",
    5: "output offsets must be non-negative",
    6: "dense lines must be non-negative and below 2**63",
}
"""``repro_vrf_epoch``'s refusals (its return value negated), in their
order of precedence, as the ``ValueError`` each raises."""


EpochResult = Tuple[
    Tuple[int, int, int, int, int, int],
    Dict[int, bool],
    List[Tuple[int, int]],
]


def _bind_vrf_epoch(lib: ctypes.CDLL) -> Callable[..., EpochResult]:
    fn = lib.repro_vrf_epoch
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    fn.restype = i64
    fn.argtypes = [
        i64, i64, i64,            # cap, high, low
        ptr, ptr, ptr,            # tag lines, tag dirty, tag count
        ptr, ptr, i64,            # r_ids, c_ids, ids
        ptr, i64, i64,            # chunk table, chunks, SDDMM
        i64, i64, i64, i64,       # rMatrix/cMatrix base, stride, out base
        ptr, i64, i64,            # sparse ranges, lpr, cadence
        ptr,                      # ops
        ptr, ptr, i64, i64,       # trace lines, ops, start, room
        ptr, ptr,                 # segments, counters
    ]

    def epoch(
        cap: int,
        high: int,
        low: int,
        tags: Dict[int, bool],
        dirty_count: int,
        r_ids: np.ndarray,
        c_ids: np.ndarray,
        chunks: np.ndarray,
        sddmm: bool,
        bases: Tuple[int, int],
        stride: int,
        out_base: int,
        sparse: np.ndarray,
        lpr: int,
        cadence: int,
        ops: Tuple[int, int, int, int],
        trace,
    ) -> EpochResult:
        """Run the C entry over an epoch :func:`check_epoch` accepted,
        reading the ids in place through the chunk table.  ``bases`` are
        the rMatrix and cMatrix first lines (at least 0); ``sparse`` is
        the ``(chunks, 6)`` int64 array of each chunk's ``(first,
        count)`` r_ids, c_ids and vals line ranges; ``ops`` the rMatrix
        load, cMatrix load, store and sparse-read op codes.  The trace
        is appended to ``trace`` (a ``TraceBuffer``), grown first when
        its room is below the walk's bound; a short buffer changes
        nothing.  A chunk table, output start or line the first pass
        refuses raises ``ValueError`` (:data:`_EPOCH_REFUSALS`) and
        changes nothing.  Returns ``((hits, misses, evictions,
        eviction_writebacks, manager_writebacks, dirty_count), final
        tags in LRU order, each chunk's (start, end) trace segment)``."""
        nres = len(tags)
        tag_lines = np.zeros(cap, dtype=np.int64)
        tag_dirty = np.zeros(cap, dtype=np.bool_)
        tag_lines[:nres] = np.fromiter(tags.keys(), np.int64, nres)
        tag_dirty[:nres] = np.fromiter(tags.values(), np.bool_, nres)
        n_tags = np.array([nres], dtype=np.int64)
        counters = np.zeros(7, dtype=np.int64)
        counters[5] = dirty_count
        n_chunks = int(chunks.shape[0])
        segs = np.empty(2 * n_chunks, dtype=np.int64)
        op_arr = np.array(ops, dtype=np.int64)
        room = 0
        for _ in range(2):
            t_lines, t_ops, t_pos = trace.storage(room)
            rc = fn(
                cap, high, low,
                tag_lines.ctypes.data, tag_dirty.ctypes.data,
                n_tags.ctypes.data,
                r_ids.ctypes.data, c_ids.ctypes.data, r_ids.shape[0],
                chunks.ctypes.data, n_chunks, int(sddmm),
                bases[0], bases[1], stride, out_base,
                sparse.ctypes.data, lpr, cadence,
                op_arr.ctypes.data,
                t_lines.ctypes.data, t_ops.ctypes.data, t_pos,
                t_lines.shape[0],
                segs.ctypes.data, counters.ctypes.data,
            )
            if rc != -3:
                break
            room = int(counters[6]) - t_pos
        if rc == -1:
            raise MemoryError("VRF walk could not allocate its state")
        if -rc in _EPOCH_REFUSALS:
            raise ValueError(_EPOCH_REFUSALS[-rc])
        if rc < 0:
            raise RuntimeError("VRF walk overflowed its trace bound")
        trace.commit(rc)
        k = int(n_tags[0])
        bounds = segs.tolist()
        return (
            tuple(counters[:6].tolist()),
            dict(zip(tag_lines[:k].tolist(), tag_dirty[:k].tolist())),
            list(zip(bounds[0::2], bounds[1::2])),
        )

    return epoch


_TRACE_REFUSALS = {
    1: "cache lines must be non-negative",
    2: "trace ops must be non-negative",
    3: "a trace op names no access path",
    4: "a trace op's region id is not below {}",
}
"""The failure codes of an epoch's trace check (``check_run`` in
``replay_epoch.c``), in their order of precedence within a run, as the
``ValueError`` each raises: no negative line (C's ``%`` differs from
Python's on those); every op non-negative, on one of the three paths,
with a region id below the number of regions."""


def _trace_refusal(lines: np.ndarray, ops: np.ndarray, n_regions: int) -> int:
    """The twin of the compiled replay's check of one run's int64
    ``lines`` and ``ops``: its failure code (:data:`_TRACE_REFUSALS`),
    0 if it has none."""
    if not lines.shape[0]:
        return 0
    if int(lines.min()) < 0:
        return 1
    if int(ops.min()) < 0:
        return 2
    if int((ops & 3).max()) == 3:
        return 3
    if int(ops.max()) >> 3 >= n_regions:
        return 4
    return 0


class ReplayResult(NamedTuple):
    """What one compiled epoch replay found, decoded per structure and
    per region; the structures' states already hold their residents."""

    levels: np.ndarray
    """Each access's service level."""
    counters: List[Tuple[object, int, int, int]]
    """``(cache, hits, misses, writebacks)`` per structure."""
    dram_reads: int
    dram_writes: int
    traffic: List[Tuple[int, int]]
    """``(region id, accesses)`` of the DRAM traffic: the dense path's
    reads and writes, then each PE's victim cache's, then each PE's
    stream buffer's."""
    walks: List[Tuple[str, object, int, int]]
    """``(level, cache, events, nanoseconds)`` per walked stream."""


def replay_structures(ms) -> List[Tuple[str, object]]:
    """Every LRU structure of the memory system ``ms`` with its dispatch
    level name, in ``repro_replay_epoch``'s order: the L1s, victim
    caches and stream buffers per PE, the L2s and STLBs per group, the
    LLC."""
    return (
        [("l1", c) for c in ms.l1s]
        + [("victim", b.victim) for b in ms.bbfs]
        + [("bbf", b.stream) for b in ms.bbfs]
        + [("l2", c) for c in ms.l2s]
        + [("stlb", t) for t in ms.stlbs]
        + [("llc", ms.llc)]
    )


_ERR_ALLOC, _ERR_OUTSIDE, _ERR_OVERFULL, _ERR_TWICE = -1, -3, -4, -5
_ERR_TRACE = -10  # a run's lines or ops fail: _ERR_TRACE - its code


class ReplayState:
    """One structure's resident lines, held in C by the compiled replay
    from one epoch to the next (``repro_state_*`` in
    ``replay_epoch.c``): per-set LRU lists in a node pool, and a line
    table.  :class:`repro.memory.cache.Cache` makes one from its dicts
    on the first compiled epoch and turns it back into dicts when they
    are read.  The C state is freed when this object goes (or at
    :meth:`close`); copies of a process made by ``fork`` hold their own
    copy of it."""

    __slots__ = ("ptr", "num_sets", "ways", "_lib", "_free", "__weakref__")

    def __init__(self, lib: ctypes.CDLL, num_sets: int, ways: int) -> None:
        ptr = lib.repro_state_new(num_sets, ways)
        if not ptr:
            raise MemoryError(
                f"the compiled replay could not allocate {num_sets} sets "
                f"of {ways} ways"
            )
        self.ptr, self.num_sets, self.ways, self._lib = (
            ptr, num_sets, ways, lib
        )
        self._free = weakref.finalize(self, lib.repro_state_free, ptr)
        self._free.atexit = False  # the process is going anyway

    def load(self, sets, name: str) -> None:
        """Take the residents of ``sets``, one ``{line: dirty}`` dict
        per set in LRU order, into this empty state.  Raises
        ``ValueError`` for dicts that are not one per set, a set over
        its ways, a negative line, a line outside its set or a line
        twice; the state must then be dropped."""
        counts = array("q", map(len, sets))
        if len(counts) != self.num_sets:
            raise ValueError(
                f"{name}: {len(counts)} resident dicts for "
                f"{self.num_sets} sets"
            )
        total = sum(counts)
        if not total:
            return
        lines = array("q", chain.from_iterable(sets))
        dirty = array("B", chain.from_iterable(d.values() for d in sets))
        if not len(lines) == len(dirty) == total:
            raise ValueError(f"{name}: resident dicts changed while read")
        rc = self._lib.repro_state_import(
            self.ptr, counts.buffer_info()[0], lines.buffer_info()[0],
            dirty.buffer_info()[0],
        )
        if rc == _ERR_ALLOC:
            raise MemoryError(f"{name}: could not allocate its residents")
        if rc == _ERR_OVERFULL:
            raise ValueError(
                f"{name}: a set holds more residents than its "
                f"{self.ways} ways"
            )
        if rc == _ERR_OUTSIDE:
            raise ValueError(
                f"{name}: a negative line or a resident outside its set"
            )
        if rc < 0:
            raise ValueError(f"{name}: a line resident twice")

    def export(self) -> Tuple[List[int], List[int], List[bool]]:
        """The residents: each set's count, then every line and its dirty
        flag, set after set in LRU order (oldest first)."""
        n = self._lib.repro_state_size(self.ptr)
        counts = np.empty(self.num_sets, dtype=np.int64)
        lines = np.empty(n, dtype=np.int64)
        dirty = np.empty(n, dtype=np.bool_)
        self._lib.repro_state_export(
            self.ptr, counts.ctypes.data, lines.ctypes.data,
            dirty.ctypes.data,
        )
        return counts.tolist(), lines.tolist(), dirty.tolist()

    def dirty(self) -> int:
        """The number of dirty residents."""
        return self._lib.repro_state_dirty(self.ptr)

    def close(self) -> None:
        """Free the C state now."""
        self._free()

    def __reduce__(self):
        raise TypeError("a compiled replay state cannot be copied")


def live_states() -> int:
    """Compiled replay states allocated and not yet freed in this
    process (0 without the library)."""
    k = kernels()
    return k.live_states() if k is not None else 0


def _bind_replay_epoch(lib: ctypes.CDLL) -> Callable[..., ReplayResult]:
    from repro.memory.hierarchy import SPARSE_REGION
    from repro.memory.tlb import LINES_PER_PAGE

    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    lib.repro_state_new.restype = ptr
    lib.repro_state_new.argtypes = [i64, i64]
    lib.repro_state_free.restype = None
    lib.repro_state_free.argtypes = [ptr]
    lib.repro_state_live.restype = i64
    lib.repro_state_live.argtypes = []
    lib.repro_state_import.restype = i64
    lib.repro_state_import.argtypes = [ptr, ptr, ptr, ptr]
    lib.repro_state_export.restype = None
    lib.repro_state_export.argtypes = [ptr, ptr, ptr, ptr]
    for name in ("repro_state_size", "repro_state_dirty"):
        getattr(lib, name).restype = i64
        getattr(lib, name).argtypes = [ptr]
    fn = lib.repro_replay_epoch
    fn.restype = i64
    fn.argtypes = [
        ptr, ptr, ptr, i64,       # runs, run lines, run ops, n_runs
        i64, i64, i64, i64,       # PEs, PEs per L2, lines per page, regions
        i64, ptr,                 # sparse region, states
        ptr, ptr, ptr, ptr, ptr,  # out: levels, counters, DRAM, tally, walks
    ]

    def new_state(num_sets: int, ways: int) -> ReplayState:
        return ReplayState(lib, num_sets, ways)

    def replay(ms, runs, n_regions: int, tally=None) -> ReplayResult:
        """Replay an epoch's runs ``(pe, lines, ops)``, each pair 1-D
        C-contiguous int64 of one length (as
        :func:`repro.memory.replay_array._checked_runs` gives them),
        through every structure of the memory system ``ms``, reading
        the runs in place, and add each run's service levels into its
        PE's row of ``tally`` (a C-contiguous int64 ``(PEs, 3,
        levels)`` array, as :func:`repro.memory.hierarchy.level_tally`
        counts them) unless it is ``None``.  Each structure's residents
        move into its compiled state on first use
        (:meth:`Cache._replay_state`) and stay there.  A line or op the
        trace check refuses raises its :data:`_TRACE_REFUSALS` message
        for the first failing run.  A refused or failed call changes no
        resident and no tally."""
        units = replay_structures(ms)
        caches = [c for _, c in units]
        num_pes = len(ms.l1s)
        pes_per_l2 = ms.config.memory.pes_per_l2
        n_groups = -(-num_pes // pes_per_l2)
        if (len(ms.bbfs), len(ms.l2s), len(ms.stlbs)) != (
            num_pes, n_groups, n_groups
        ):
            raise ValueError(
                f"{num_pes} PEs in groups of {pes_per_l2} need {num_pes} "
                f"BBFs and {n_groups} L2s and STLBs, not {len(ms.bbfs)}, "
                f"{len(ms.l2s)} and {len(ms.stlbs)}"
            )
        if min(min(c.num_sets, c.ways) for c in caches) < 1:
            raise ValueError("every structure needs a set and a way")
        states = np.array(
            [c._replay_state(new_state).ptr for c in caches], dtype=np.uintp
        )
        table, line_at, op_at = [], [], []
        n = 0
        for pe, lines, ops in runs:
            table.append((pe, n, n + lines.shape[0]))
            n += lines.shape[0]
            line_at.append(lines.ctypes.data)
            op_at.append(ops.ctypes.data)
        runs_arr = np.array(table, dtype=np.int64).reshape(-1, 3)
        line_ptrs = np.array(line_at, dtype=np.uintp)
        op_ptrs = np.array(op_at, dtype=np.uintp)
        levels = np.empty(n, dtype=np.uint8)
        counters = np.zeros((len(caches), 3), dtype=np.int64)
        # Slots of n_regions counts: dense reads, dense writes, then per
        # PE victim-cache reads and writes, then per PE stream reads and
        # writes.
        dram = np.zeros((2 + 4 * num_pes, n_regions), dtype=np.int64)
        walks = np.empty((len(caches), 3), dtype=np.int64)
        rc = fn(
            runs_arr.ctypes.data, line_ptrs.ctypes.data, op_ptrs.ctypes.data,
            len(table), num_pes, pes_per_l2, LINES_PER_PAGE, n_regions,
            SPARSE_REGION, states.ctypes.data,
            levels.ctypes.data, counters.ctypes.data, dram.ctypes.data,
            None if tally is None else tally.ctypes.data, walks.ctypes.data,
        )
        if rc == _ERR_ALLOC:
            raise MemoryError("epoch replay could not allocate its state")
        if _ERR_TRACE - rc in _TRACE_REFUSALS:
            raise ValueError(
                _TRACE_REFUSALS[_ERR_TRACE - rc].format(n_regions)
            )
        if rc < 0:
            raise ValueError("epoch replay refused its run table")
        by_slot = dram.tolist()
        return ReplayResult(
            levels,
            [(c, *row) for c, row in zip(caches, counters.tolist())],
            sum(map(sum, by_slot[0::2])),
            sum(map(sum, by_slot[1::2])),
            [(r, x) for row in by_slot for r, x in enumerate(row) if x],
            [(*units[c], events, ns) for c, events, ns in walks[:rc].tolist()],
        )

    return replay


def _require_segments(segments: np.ndarray) -> None:
    _require("segments", segments, np.int64, 2)
    if segments.shape[1] != 3:
        raise ValueError(
            "segments must be (input offset, count, output start)"
        )


def check_spmm_merge(
    d_accum: np.ndarray,
    r_ids: np.ndarray,
    c_ids: np.ndarray,
    vals: np.ndarray,
    b64: np.ndarray,
    segments: np.ndarray,
) -> None:
    """Validate the form of an SpMM merge before anything is written:
    ``r_ids``/``c_ids`` 1-D C-contiguous int64 and ``vals`` 1-D
    C-contiguous float32, all of one length; ``d_accum`` and ``b64``
    2-D C-contiguous float64 with the same number of columns, and
    ``d_accum`` writeable; ``segments`` a C-contiguous int64 ``(n, 3)``
    table.  The values are checked by :func:`merge_refusal` or by the C
    merge itself."""
    _require("r_ids", r_ids, np.int64)
    _require("c_ids", c_ids, np.int64)
    _require("vals", vals, np.float32)
    _require("d_accum", d_accum, np.float64, 2)
    _require("b64", b64, np.float64, 2)
    _require_segments(segments)
    if not d_accum.flags.writeable:
        raise ValueError("d_accum must be writeable")
    if not r_ids.shape == c_ids.shape == vals.shape:
        raise ValueError("r_ids, c_ids and vals differ in length")
    if d_accum.shape[1] != b64.shape[1]:
        raise ValueError(
            f"d_accum has {d_accum.shape[1]} columns, b64 {b64.shape[1]}"
        )


def check_sddmm_merge(
    out_vals: np.ndarray,
    r_ids: np.ndarray,
    c_ids: np.ndarray,
    vals: np.ndarray,
    b64: np.ndarray,
    c64: np.ndarray,
    segments: np.ndarray,
) -> None:
    """Validate the form of an SDDMM merge before anything is written:
    ``r_ids``/``c_ids`` 1-D C-contiguous int64 and ``vals`` 1-D
    C-contiguous float32, all of one length; ``out_vals`` 1-D
    C-contiguous, writeable float64; ``b64`` and ``c64`` 2-D
    C-contiguous float64 with the same number of columns; ``segments``
    a C-contiguous int64 ``(n, 3)`` table.  The values are checked by
    :func:`merge_refusal` or by the C merge itself."""
    _require("r_ids", r_ids, np.int64)
    _require("c_ids", c_ids, np.int64)
    _require("vals", vals, np.float32)
    _require("out_vals", out_vals, np.float64)
    _require("b64", b64, np.float64, 2)
    _require("c64", c64, np.float64, 2)
    _require_segments(segments)
    if not out_vals.flags.writeable:
        raise ValueError("out_vals must be writeable")
    if not r_ids.shape == c_ids.shape == vals.shape:
        raise ValueError("r_ids, c_ids and vals differ in length")
    if b64.shape[1] != c64.shape[1]:
        raise ValueError(f"b64 has {b64.shape[1]} columns, c64 {c64.shape[1]}")


def merge_refusal(
    segments: np.ndarray,
    ids: Tuple[Tuple[str, np.ndarray, int], ...],
    out_room: Optional[int] = None,
) -> Optional[str]:
    """The twin of the C merges' checks: why the merge must refuse its
    ``segments``, or ``None``.  Each segment must be a range inside the
    ids; with ``out_room`` (the length of the SDDMM output) its
    output range must lie in ``[0, out_room)``; each of ``ids``, as
    ``(name, array, bound)``, must lie in ``[0, bound)`` on every
    segment."""
    n = ids[0][1].shape[0]
    for off, cnt, at in segments.tolist():
        if off < 0 or cnt < 0 or off > n - cnt:
            return f"segment [{off}, {off + cnt}) falls outside [0, {n})"
        if out_room is not None and (at < 0 or at > out_room - cnt):
            return (
                f"output slots [{at}, {at + cnt}) fall outside "
                f"[0, {out_room})"
            )
        if cnt:
            for name, arr, bound in ids:
                part = arr[off : off + cnt]
                if int(part.min()) < 0 or int(part.max()) >= bound:
                    return f"{name} fall outside [0, {bound})"
    return None


def _bind_spmm_merge(lib: ctypes.CDLL) -> Callable[..., None]:
    fn = lib.repro_spmm_merge
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    fn.restype = i64
    fn.argtypes = [
        ptr, i64,                 # d_accum, rows
        ptr, i64, i64,            # b64, b rows, k
        ptr, ptr, ptr, i64,       # r_ids, c_ids, vals, n
        ptr, i64,                 # segments, segment count
    ]

    def merge(
        d_accum: np.ndarray,
        r_ids: np.ndarray,
        c_ids: np.ndarray,
        vals: np.ndarray,
        b64: np.ndarray,
        segments: np.ndarray,
    ) -> None:
        """Run the C merge over a table :func:`check_spmm_merge`
        accepted, in place.  The kernel checks every segment and index
        before it writes; a refused table raises ``IndexError``."""
        rc = fn(
            d_accum.ctypes.data, d_accum.shape[0],
            b64.ctypes.data, b64.shape[0], b64.shape[1],
            r_ids.ctypes.data, c_ids.ctypes.data, vals.ctypes.data,
            r_ids.shape[0], segments.ctypes.data, segments.shape[0],
        )
        if rc != 0:
            raise IndexError("SpMM merge segment or index out of range")

    return merge


def _bind_sddmm_merge(lib: ctypes.CDLL) -> Callable[..., None]:
    fn = lib.repro_sddmm_merge
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    fn.restype = i64
    fn.argtypes = [
        ptr, i64,                 # out_vals, length
        ptr, i64, ptr, i64, i64,  # b64, b rows, c64, c rows, k
        ptr, ptr, ptr, i64,       # r_ids, c_ids, vals, n
        ptr, i64,                 # segments, segment count
    ]

    def merge(
        out_vals: np.ndarray,
        r_ids: np.ndarray,
        c_ids: np.ndarray,
        vals: np.ndarray,
        b64: np.ndarray,
        c64: np.ndarray,
        segments: np.ndarray,
    ) -> None:
        """Run the C merge over a table :func:`check_sddmm_merge`
        accepted, in place.  The kernel checks the output ranges, every
        segment and every index before it writes; a refused table
        raises ``IndexError``."""
        rc = fn(
            out_vals.ctypes.data, out_vals.shape[0],
            b64.ctypes.data, b64.shape[0], c64.ctypes.data, c64.shape[0],
            b64.shape[1],
            r_ids.ctypes.data, c_ids.ctypes.data, vals.ctypes.data,
            r_ids.shape[0], segments.ctypes.data, segments.shape[0],
        )
        if rc != 0:
            raise IndexError("SDDMM merge segment or index out of range")

    return merge


def _bind_tile(lib: ctypes.CDLL) -> Callable[..., Tuple[np.ndarray, ...]]:
    fn = lib.repro_tile
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    fn.restype = i64
    fn.argtypes = [
        ptr, ptr, ptr, i64,       # r_ids, c_ids, vals, n
        i64, i64, i64, i64, i64,  # rows, cols, RP, CP, column panels
        ptr, ptr, ptr,            # out: r_ids, c_ids, vals (or NULL)
        ptr, ptr,                 # out: tile starts, tile ids
    ]

    def tile(
        r_ids: np.ndarray,
        c_ids: np.ndarray,
        vals: np.ndarray,
        num_rows: int,
        num_cols: int,
        row_panel_size: int,
        col_panel_size: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The entries in tiled order and the tile table, as ``(r_ids,
        c_ids, vals, tile starts, tile ids)``: each non-empty tile's
        first entry and its id ``rp * n_cp + cp``.  Entries already in
        tiled order come back as the input arrays themselves; otherwise
        they are new arrays.  ``r_ids``/``c_ids`` 1-D C-contiguous
        int64, ``vals`` 1-D C-contiguous float32, of one length below
        ``2**32``; panel sizes at least 1 and a key span (panels times
        panel area) below ``2**63``.  Raises ``ValueError`` for an entry
        outside the matrix."""
        _require("r_ids", r_ids, np.int64)
        _require("c_ids", c_ids, np.int64)
        _require("vals", vals, np.float32)
        n = r_ids.shape[0]
        if not c_ids.shape[0] == vals.shape[0] == n:
            raise ValueError("r_ids, c_ids and vals differ in length")
        n_rp = -(-num_rows // row_panel_size)
        n_cp = -(-num_cols // col_panel_size)
        if min(row_panel_size, col_panel_size) < 1 or n >= 2**32 or (
            n_rp * n_cp * row_panel_size * col_panel_size >= 2**63
        ):
            raise ValueError("the compiled tiler cannot take this matrix")
        room = min(n, n_rp * n_cp)
        starts, ids = np.empty(room, np.int64), np.empty(room, np.int64)
        args = (
            r_ids.ctypes.data, c_ids.ctypes.data, vals.ctypes.data, n,
            num_rows, num_cols, row_panel_size, col_panel_size, n_cp,
        )
        table = (starts.ctypes.data, ids.ctypes.data)
        out = (r_ids, c_ids, vals)
        rc = fn(*args, None, None, None, *table)
        if rc == -3:  # not in tiled order: sort into new arrays
            out = (
                np.empty(n, np.int64), np.empty(n, np.int64),
                np.empty(n, np.float32),
            )
            rc = fn(*args, *(a.ctypes.data for a in out), *table)
        if rc == -2:
            raise MemoryError("the tiler could not allocate its sort")
        if rc < 0:
            raise ValueError("an entry lies outside the matrix")
        return (*out, starts[:rc].copy(), ids[:rc].copy())

    return tile
