"""Cross-process publishing primitives for shared directories.

The blob stores (:mod:`repro.blobstore` — the sweep result cache and
the epoch checkpoints) publish files into directories that may be
shared by many workers and processes at once.  They publish with the
atomic temp-file + ``os.replace`` idiom, which is only atomic when
each writer owns its *own* temp file.  A fixed ``path + ".tmp"``
name breaks that: two workers racing on the same key open the same temp
file and interleave their writes, so the eventual rename publishes a
spliced, corrupt payload.

This module provides the fix:

- :func:`exclusive_tmp_path` — a per-writer temp name (pid + per-process
  counter) opened with ``O_CREAT | O_EXCL``, so no two writers can ever
  share a temp file, on any filesystem, even across processes that
  happen to recycle pids.
- :func:`atomic_write` — the one publish sequence built on it: write
  the temp file, fsync, ``os.replace``, and unlink the temp file if any
  step fails.

Both are dependency-free and safe on POSIX and NFS-like filesystems
(``O_EXCL`` file creation is the one primitive NFSv3+ guarantees).
"""

from __future__ import annotations

import itertools
import os

_TMP_COUNTER = itertools.count()


def exclusive_tmp_path(path: str) -> str:
    """Create and return a writer-unique temp file next to ``path``.

    The file is created with ``O_CREAT | O_EXCL`` so its existence is
    claimed atomically; the caller writes into it and publishes with
    ``os.replace(tmp, path)``.  Concurrent writers of the same ``path``
    each get distinct temp files, so renames can race but never
    interleave partial writes; ``os.replace`` keeps the last completed
    writer, which is a valid file.
    """
    directory = os.path.dirname(path) or "."
    base = os.path.basename(path)
    while True:
        tmp = os.path.join(
            directory,
            f".{base}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp",
        )
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            continue  # pid recycling landed on a leftover; pick another
        os.close(fd)
        return tmp


def atomic_write(path: str, data: bytes) -> None:
    """Publish ``data`` at ``path`` all at once.

    The bytes go into an :func:`exclusive_tmp_path` file, are fsynced,
    and replace ``path`` in one ``os.replace``: a reader sees the old
    file or the new one, never a torn one.  On any failure the temp
    file is removed and the error re-raised.
    """
    tmp = exclusive_tmp_path(path)
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
