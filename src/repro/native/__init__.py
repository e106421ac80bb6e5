"""Compiled kernels, built with the host's gcc on first use.

Three kernels live here, built into one library:

- ``vrf_walk.c``, one PE-epoch of trace generation behind
  :func:`repro.core.vectorized.trace_epoch`: it derives the dense-operand
  access stream from each nonzero's lines, drops the touches the
  elision argument (DESIGN.md section 7) proves invisible, walks the
  vector register file exactly and writes the chunks' traces.  Its
  Python twin, ``repro.core.vectorized._trace_epoch_twin``, walks the
  full unelided stream, so every comparison of the two also checks the
  elision argument;
- ``cache_walk.c``, the exact scalar walk of one cache level over an
  event stream behind :func:`repro.memory.replay_array.walk_level`; its
  Python twin is a loop over :meth:`repro.memory.cache.Cache.access`;
- ``spmm_merge.c``, the SpMM output merge behind
  :func:`repro.kernels.reference.spmm_chunk_update`; its twin is the
  ``np.add.at`` scatter it transcribes.

A twin is the reference and the path taken when the library does not
load; results are identical either way, only slower.

Build, cache and trust rules:

- Nothing compiles at import.  The first :func:`kernels` call (a walk
  or an SpMM merge) builds the library and the outcome holds for the
  rest of the process.
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
  twins.
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
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

SOURCES = tuple(
    Path(__file__).with_name(name)
    for name in ("vrf_walk.c", "cache_walk.c", "spmm_merge.c")
)
# -ffp-contract=off: no fused multiply-add may skip a rounding the
# NumPy twins perform (the SpMM merge's product).
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


class Kernels(NamedTuple):
    """The library's bound entry points."""

    vrf_epoch: Callable
    cache_walk: Callable
    spmm_merge: Callable


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
                    _bind_vrf_epoch(lib), _bind_cache_walk(lib),
                    _bind_spmm_merge(lib),
                )
            except (NativeUnavailable, OSError, subprocess.SubprocessError) as exc:
                warnings.warn(
                    f"compiled kernels unavailable ({exc}); using the "
                    "Python twins: same results, slower",
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


def cache_walk_kernel() -> Optional[Callable]:
    """The compiled cache walk, or ``None`` (see :func:`kernels`)."""
    k = kernels()
    return k.cache_walk if k is not None else None


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
    r_lines: np.ndarray,
    c_lines: np.ndarray,
    chunk_nnz: np.ndarray,
    out_starts: Optional[np.ndarray],
    lpr: int,
    cadence: int,
    cap: int,
    n_resident: int,
) -> None:
    """Validate one PE-epoch of trace generation before any walk:
    ``r_lines``/``c_lines`` (each nonzero's first rMatrix and cMatrix
    line) 1-D C-contiguous int64 of one length, no line negative;
    ``chunk_nnz`` 1-D C-contiguous int64, no size negative, summing to
    that length; ``out_starts`` (``None`` for SpMM) 1-D C-contiguous
    int64 with one non-negative output offset per chunk; ``lpr`` and
    ``cadence`` at least 1; a VRF of ``1 <= cap < 2**31`` lines holding
    at most ``cap`` residents."""
    _require("r_lines", r_lines, np.int64)
    _require("c_lines", c_lines, np.int64)
    _require("chunk_nnz", chunk_nnz, np.int64)
    if out_starts is not None:
        _require("out_starts", out_starts, np.int64)
        if out_starts.shape != chunk_nnz.shape:
            raise ValueError("one output start offset per chunk")
        if out_starts.shape[0] and int(out_starts.min()) < 0:
            raise ValueError("output offsets must be non-negative")
    n = r_lines.shape[0]
    if c_lines.shape[0] != n:
        raise ValueError("r_lines and c_lines differ in length")
    if chunk_nnz.shape[0] and int(chunk_nnz.min()) < 0:
        raise ValueError("chunk sizes must be non-negative")
    if int(chunk_nnz.sum()) != n:
        raise ValueError(f"chunk sizes do not sum to the {n} nonzeros")
    if n and min(int(r_lines.min()), int(c_lines.min())) < 0:
        raise ValueError("dense lines must be non-negative")
    if lpr < 1 or cadence < 1:
        raise ValueError("lines per row and cadence must be at least 1")
    if not 1 <= cap < 2**31 or n_resident > cap:
        raise ValueError(f"{n_resident} residents in a {cap}-line VRF")


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
        ptr, ptr,                 # r_lines, c_lines
        ptr, ptr, i64,            # chunk sizes, output starts, chunks
        ptr, i64, i64, i64,       # sparse ranges, lpr, cadence, out base
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
        r_lines: np.ndarray,
        c_lines: np.ndarray,
        chunk_nnz: np.ndarray,
        out_starts: Optional[np.ndarray],
        out_base: int,
        sparse: np.ndarray,
        lpr: int,
        cadence: int,
        ops: Tuple[int, int, int, int],
        trace,
    ) -> EpochResult:
        """Run the C entry over an epoch :func:`check_epoch` accepted.
        ``sparse`` is the ``(chunks, 6)`` int64 array of each chunk's
        ``(first, count)`` r_ids, c_ids and vals line ranges; ``ops`` the
        rMatrix load, cMatrix load, store and sparse-read op codes.  The
        trace is appended to ``trace`` (a ``TraceBuffer``), grown first
        when its room is below the walk's bound; a short buffer changes
        nothing.  Returns ``((hits, misses, evictions,
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
        n_chunks = int(chunk_nnz.shape[0])
        segs = np.empty(2 * n_chunks, dtype=np.int64)
        op_arr = np.array(ops, dtype=np.int64)
        room = 0
        for _ in range(2):
            t_lines, t_ops, t_pos = trace.storage(room)
            rc = fn(
                cap, high, low,
                tag_lines.ctypes.data, tag_dirty.ctypes.data,
                n_tags.ctypes.data,
                r_lines.ctypes.data, c_lines.ctypes.data,
                chunk_nnz.ctypes.data,
                None if out_starts is None else out_starts.ctypes.data,
                n_chunks,
                sparse.ctypes.data, lpr, cadence, out_base,
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


def check_cache_stream(
    lines: np.ndarray, writes: np.ndarray, isfill: Optional[np.ndarray]
) -> None:
    """Validate a cache walk's event stream: ``lines`` 1-D C-contiguous
    int64 with no negative value (C's ``%`` differs from Python's on
    those), ``writes`` and ``isfill`` (``None`` = every miss fills) 1-D
    C-contiguous bool, all of one length."""
    _require("lines", lines, np.int64)
    _require("writes", writes, np.bool_)
    if isfill is not None:
        _require("isfill", isfill, np.bool_)
    if lines.shape != writes.shape or (
        isfill is not None and isfill.shape != lines.shape
    ):
        raise ValueError("lines, writes and isfill differ in length")
    if lines.shape[0] and int(lines.min()) < 0:
        raise ValueError("cache lines must be non-negative")


CacheWalkResult = Tuple[
    Tuple[int, int, int],
    List[Dict[int, bool]],
    np.ndarray,
    np.ndarray,
    np.ndarray,
]


def _bind_cache_walk(lib: ctypes.CDLL) -> Callable[..., CacheWalkResult]:
    fn = lib.repro_cache_walk
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    fn.restype = i64
    fn.argtypes = [
        i64, i64, ptr, i64,       # num_sets, ways, touched, n_touched
        ptr, ptr, ptr,            # resident lines, dirty bits, counts
        ptr, ptr, ptr, i64,       # lines, writes, isfill, n
        ptr, ptr, ptr, i64,       # emission lines, writes, positions, room
        ptr,                      # counters
    ]

    def walk(
        num_sets: int,
        ways: int,
        touched: np.ndarray,
        residents: List[Dict[int, bool]],
        lines: np.ndarray,
        writes: np.ndarray,
        isfill: Optional[np.ndarray],
    ) -> CacheWalkResult:
        """Run the C walk over a stream :func:`check_cache_stream`
        accepted.  ``touched`` (int64, increasing) holds the set ids of
        every access, ``residents`` those sets' ``{line: dirty}`` dicts
        in LRU order.  Returns ``((hits, misses, writebacks), the
        touched sets' final dicts, e_lines, e_write, e_pos)``."""
        n = int(lines.shape[0])
        nt = int(touched.shape[0])
        if ways < 1 or nt * ways >= 2**31:
            raise ValueError(f"{nt} sets of {ways} ways do not fit a walk")
        if touched.dtype != np.int64 or touched.ndim != 1 or (
            nt and (
                int(touched[0]) < 0 or int(touched[-1]) >= num_sets
                or not bool(np.all(touched[1:] > touched[:-1]))
            )
        ):
            raise ValueError(
                "touched must hold increasing int64 set ids of this cache"
            )
        if len(residents) != nt:
            raise ValueError("one resident dict per touched set")
        counts = np.fromiter(map(len, residents), np.int64, nt)
        if nt and int(counts.max()) > ways:
            raise ValueError(f"more than {ways} residents in a set")
        room = nt * ways
        res_lines = np.empty(room, dtype=np.int64)
        res_dirty = np.empty(room, dtype=np.bool_)
        nres = int(counts.sum())
        if nres:
            keys: List[int] = []
            flags: List[bool] = []
            for d in residents:
                keys += d.keys()
                flags += d.values()
            res_lines[:nres] = keys
            res_dirty[:nres] = flags
            if int(res_lines[:nres].min()) < 0:
                raise ValueError("cache lines must be non-negative")
        counters = np.zeros(3, dtype=np.int64)
        e_cap = 2 * n
        e_lines = np.empty(e_cap, dtype=np.int64)
        e_write = np.empty(e_cap, dtype=np.bool_)
        e_pos = np.empty(e_cap, dtype=np.int64)
        ne = fn(
            num_sets, ways, touched.ctypes.data, nt,
            res_lines.ctypes.data, res_dirty.ctypes.data, counts.ctypes.data,
            lines.ctypes.data, writes.ctypes.data,
            None if isfill is None else isfill.ctypes.data, n,
            e_lines.ctypes.data, e_write.ctypes.data, e_pos.ctypes.data,
            e_cap, counters.ctypes.data,
        )
        if ne == -1:
            raise MemoryError("cache walk could not allocate its state")
        if ne == -2:
            raise RuntimeError("cache walk overflowed its emission bound")
        if ne < 0:
            raise ValueError("an access falls in a set not in touched")
        kept = int(counts.sum())
        lines_l = res_lines[:kept].tolist()
        dirty_l = res_dirty[:kept].tolist()
        final: List[Dict[int, bool]] = []
        off = 0
        for cnt in counts.tolist():
            final.append(dict(zip(lines_l[off:off + cnt],
                                  dirty_l[off:off + cnt])))
            off += cnt
        return (
            tuple(counters.tolist()), final,
            e_lines[:ne], e_write[:ne], e_pos[:ne],
        )

    return walk


def check_spmm_chunk(
    d_accum: np.ndarray,
    r_ids: np.ndarray,
    c_ids: np.ndarray,
    vals: np.ndarray,
    b64: np.ndarray,
) -> None:
    """Validate one SpMM merge chunk before anything is written:
    ``r_ids``/``c_ids`` 1-D C-contiguous int64 and ``vals`` 1-D
    C-contiguous float32, all of one length; ``d_accum`` and ``b64``
    2-D C-contiguous float64 with the same number of columns, and
    ``d_accum`` writeable; every row id in ``[0, len(d_accum))`` and
    column id in ``[0, len(b64))`` (``IndexError`` otherwise)."""
    _require("r_ids", r_ids, np.int64)
    _require("c_ids", c_ids, np.int64)
    _require("vals", vals, np.float32)
    _require("d_accum", d_accum, np.float64, 2)
    _require("b64", b64, np.float64, 2)
    if not d_accum.flags.writeable:
        raise ValueError("d_accum must be writeable")
    if not r_ids.shape == c_ids.shape == vals.shape:
        raise ValueError("r_ids, c_ids and vals differ in length")
    if d_accum.shape[1] != b64.shape[1]:
        raise ValueError(
            f"d_accum has {d_accum.shape[1]} columns, b64 {b64.shape[1]}"
        )
    if r_ids.shape[0]:
        for name, ids, bound in (
            ("r_ids", r_ids, d_accum.shape[0]),
            ("c_ids", c_ids, b64.shape[0]),
        ):
            if int(ids.min()) < 0 or int(ids.max()) >= bound:
                raise IndexError(f"{name} fall outside [0, {bound})")


def _bind_spmm_merge(lib: ctypes.CDLL) -> Callable[..., None]:
    fn = lib.repro_spmm_merge
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    fn.restype = i64
    fn.argtypes = [
        ptr, i64,                 # d_accum, rows
        ptr, i64, i64,            # b64, b rows, k
        ptr, ptr, ptr, i64,       # r_ids, c_ids, vals, n
    ]

    def merge(
        d_accum: np.ndarray,
        r_ids: np.ndarray,
        c_ids: np.ndarray,
        vals: np.ndarray,
        b64: np.ndarray,
    ) -> None:
        """Run the C merge over a chunk :func:`check_spmm_chunk`
        accepted, in place.  The kernel checks the indices again before
        it writes; a rejected chunk raises ``IndexError``."""
        rc = fn(
            d_accum.ctypes.data, d_accum.shape[0],
            b64.ctypes.data, b64.shape[0], b64.shape[1],
            r_ids.ctypes.data, c_ids.ctypes.data, vals.ctypes.data,
            r_ids.shape[0],
        )
        if rc != 0:
            raise IndexError("SpMM merge index out of range")

    return merge
