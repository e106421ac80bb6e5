"""Cross-process file locking primitives for shared directories.

Several subsystems publish files into directories that may be shared by
many workers at once: the blob stores (:mod:`repro.blobstore` — the
sweep result cache and the epoch checkpoints) and the sweep lease
protocol (:mod:`repro.sweep.lease`).  They publish
with the atomic temp-file + ``os.replace`` idiom, which is only atomic
when each writer owns its *own* temp file.  A fixed ``path + ".tmp"``
name breaks that: two workers racing on the same key open the same temp
file and interleave their writes, so the eventual rename publishes a
spliced, corrupt payload.

This module provides the fixes:

- :func:`exclusive_tmp_path` — a per-writer temp name (pid + per-process
  counter) opened with ``O_CREAT | O_EXCL``, so no two writers can ever
  share a temp file, on any filesystem, even across processes that
  happen to recycle pids.
- :func:`atomic_write` — the one publish sequence built on it: write
  the temp file, fsync, ``os.replace``, and unlink the temp file if any
  step fails.
- :class:`FileLock` — an advisory ``O_EXCL`` lockfile for critical
  sections that need full mutual exclusion rather than last-writer-wins
  (e.g. read-modify-write maintenance of a shared directory).

All are dependency-free and safe on POSIX and NFS-like filesystems
(``O_EXCL`` file creation is the one primitive NFSv3+ guarantees).
"""

from __future__ import annotations

import itertools
import os
import random
import time
from typing import Optional

_TMP_COUNTER = itertools.count()

# Test seam: lets the backoff schedule be observed without patching the
# global time module.
_sleep = time.sleep


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


class LockTimeout(TimeoutError):
    """Raised when a :class:`FileLock` cannot be acquired in time."""


class FileLock:
    """Advisory exclusive lock backed by an ``O_EXCL`` lockfile.

    Usage::

        with FileLock(path + ".lock"):
            ...  # critical section

    The lock is *advisory*: only cooperating FileLock users are
    excluded.  A crashed holder leaves the lockfile behind; holders
    write an owner token (pid plus a random nonce) into it and
    :meth:`acquire` breaks locks older than ``stale_s`` seconds so one
    dead worker cannot wedge a sweep forever.  :meth:`release` verifies
    the token before unlinking: a holder whose lock was stale-broken and
    re-acquired by another process must *not* delete the new holder's
    lockfile.

    Contended acquires poll with jittered exponential backoff — the
    first probe is immediate (uncontended latency is unchanged), then
    the sleep doubles from ``poll_s`` up to ``max_poll_s`` with each
    failed probe, jittered into ``[delay/2, delay]`` so a herd of shard
    runners racing on one claim file desynchronises instead of hammering
    the directory in lockstep.
    """

    def __init__(
        self,
        path: str,
        timeout_s: float = 30.0,
        poll_s: float = 0.01,
        stale_s: Optional[float] = 300.0,
        max_poll_s: float = 0.25,
    ) -> None:
        self.path = path
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self.stale_s = stale_s
        self.max_poll_s = max(poll_s, max_poll_s)
        self._held = False
        self._token: Optional[str] = None

    def _try_acquire(self) -> bool:
        try:
            fd = os.open(
                self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            return False
        # pid first for human diagnosis; the nonce makes the token
        # unforgeable across pid recycling and stale-break races.
        token = f"{os.getpid()}:{os.urandom(8).hex()}"
        with os.fdopen(fd, "w") as fh:
            fh.write(token)
        self._token = token
        return True

    def _break_if_stale(self) -> None:
        if self.stale_s is None:
            return
        try:
            # Clamp: a future mtime (clock skew, touched file) must read
            # as a fresh lock, not a negative age that can wrap weirdly
            # in comparisons downstream.
            age = max(0.0, time.time() - os.stat(self.path).st_mtime)
        except OSError:
            return  # already released
        if age > self.stale_s:
            try:
                os.unlink(self.path)
            except OSError:
                pass

    def acquire(self) -> "FileLock":
        deadline = time.monotonic() + self.timeout_s
        delay = self.poll_s
        while True:
            if self._try_acquire():
                self._held = True
                return self
            self._break_if_stale()
            now = time.monotonic()
            if now >= deadline:
                raise LockTimeout(
                    f"could not acquire lock {self.path} within "
                    f"{self.timeout_s:g}s"
                )
            sleep_for = min(delay, max(0.0, deadline - now))
            _sleep(sleep_for * (0.5 + 0.5 * random.random()))
            delay = min(delay * 2.0, self.max_poll_s)

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        token, self._token = self._token, None
        try:
            with open(self.path, "r") as fh:
                current = fh.read()
        except OSError:
            return  # already broken/released by someone else
        if current != token:
            # The lock was stale-broken and re-acquired by another
            # process; its lockfile is not ours to delete.
            return
        try:
            os.unlink(self.path)
        except OSError:
            pass

    @property
    def held(self) -> bool:
        return self._held

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()
