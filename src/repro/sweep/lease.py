"""Lease protocol over a shared sweep directory.

The :class:`~repro.sweep.cache.ResultCache` makes *results* safe to
share between concurrent runners — publishes are atomic and idempotent.
What it cannot do is stop two runners from *executing* the same job
twice, and it has no memory of how often a job has been attempted.  The
lease layer adds both, using only the ``O_EXCL``/hard-link primitives
that :mod:`repro.locks` already relies on, so it works on any shared
POSIX or NFS-like filesystem with no server-side coordinator:

- **Claim** — one small JSON *lease file* per job key
  (``<dir>/ab/<key>.lease``), created atomically via the write-temp +
  ``os.link`` mail-lock idiom: exactly one claimant wins, and readers
  never observe a partially written lease.  The payload carries the
  owner id, pid, and a 1-based **attempt count**.
- **Heartbeat** — the holder refreshes the lease's mtime
  (:meth:`LeaseManager.heartbeat`) while the job runs; liveness is the
  file's age, so a SIGKILL'd runner needs no shutdown path at all.
- **Stale reclamation** — a lease older than ``ttl_s`` is presumed
  orphaned.  Reclaiming runners serialise on a short-lived
  :class:`~repro.locks.FileLock` guard, re-verify staleness under the
  guard (the holder may have just heartbeat), then re-create the lease
  with ``attempt + 1`` — the attempt count survives owner death, which
  is what lets a *poison* job (one that kills every worker that touches
  it) be detected across crashes and runners.
- **Quarantine** — a job whose attempts are exhausted is recorded in a
  machine-readable manifest under ``<dir>/quarantine/<key>.json`` and
  its lease dropped; every runner sharing the directory skips the key
  from then on instead of re-walking the crash loop.

The protocol gives *at-most-once execution per attempt*: a key is only
executed by the runner holding its lease, a lease has exactly one
holder, and every handoff (release, reclaim) increments or preserves
the attempt counter monotonically.  See DESIGN.md section 13.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.locks import FileLock, LockTimeout, atomic_write, exclusive_tmp_path

LEASE_FORMAT = "spade-sweep-lease"
QUARANTINE_FORMAT = "spade-sweep-quarantine"
LEASE_SCHEMA_VERSION = 1


def default_owner() -> str:
    """A process-unique owner id: host, pid, and a random nonce (pid
    recycling across container restarts must not alias two owners)."""
    return f"{socket.gethostname()}:{os.getpid()}:{os.urandom(4).hex()}"


@dataclass(frozen=True)
class LeaseState:
    """A point-in-time view of one lease file."""

    key: str
    owner: str
    pid: int
    attempt: int
    age_s: float
    path: str
    valid: bool = True
    """False when the file could not be parsed (foreign garbage); such
    leases are treated as stale regardless of age."""


class LeaseManager:
    """Claim/heartbeat/reclaim/quarantine over one shared directory.

    One manager instance represents one *owner* (a sweep runner
    process).  All methods are crash-safe: no operation leaves a state
    another runner cannot recover from by aging alone.
    """

    def __init__(
        self,
        directory: str,
        owner: Optional[str] = None,
        ttl_s: float = 30.0,
    ) -> None:
        if ttl_s <= 0:
            raise ValueError("lease ttl_s must be positive")
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.owner = owner or default_owner()
        self.ttl_s = float(ttl_s)
        self.claims = 0
        self.reclaims = 0
        self.releases = 0

    # -- addressing ------------------------------------------------------

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], f"{key}.lease")

    def quarantine_path(self, key: str) -> str:
        return os.path.join(self.directory, "quarantine", f"{key}.json")

    # -- reading ---------------------------------------------------------

    def read(self, key: str) -> Optional[LeaseState]:
        """The current lease for ``key``, or ``None`` when unclaimed."""
        path = self.path_for(key)
        try:
            mtime = os.stat(path).st_mtime
            with open(path, "r") as fh:
                raw = fh.read()
        except OSError:
            return None
        age = max(0.0, time.time() - mtime)
        try:
            data = json.loads(raw)
            if data.get("format") != LEASE_FORMAT:
                raise ValueError("foreign lease file")
            return LeaseState(
                key=key,
                owner=str(data["owner"]),
                pid=int(data["pid"]),
                attempt=int(data["attempt"]),
                age_s=age,
                path=path,
            )
        except (ValueError, KeyError, TypeError):
            return LeaseState(
                key=key, owner="", pid=0, attempt=0, age_s=age,
                path=path, valid=False,
            )

    # -- claiming --------------------------------------------------------

    def _try_create(self, path: str, key: str, attempt: int) -> bool:
        """Atomically create the lease file with full content visible.

        ``os.link(tmp, path)`` is the NFS-era mail-lock idiom: it fails
        with ``FileExistsError`` when another claimant won, and — unlike
        open-then-write — a concurrent reader can never observe an
        empty or torn lease.
        """
        payload = json.dumps({
            "format": LEASE_FORMAT,
            "schema_version": LEASE_SCHEMA_VERSION,
            "key": key,
            "owner": self.owner,
            "pid": os.getpid(),
            "attempt": attempt,
            "claimed_at": time.time(),
        })
        tmp = exclusive_tmp_path(path)
        try:
            with open(tmp, "w") as fh:
                fh.write(payload)
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
            except OSError:
                # Filesystem without hard links: fall back to O_EXCL
                # (readers may transiently see a torn lease, which reads
                # as invalid → stale, and heals via reclamation).
                try:
                    fd = os.open(
                        path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                    )
                except FileExistsError:
                    return False
                with os.fdopen(fd, "w") as fh:
                    fh.write(payload)
            return True
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def try_claim(self, key: str) -> Optional[int]:
        """Attempt to claim ``key``; return the 1-based attempt number
        on success, ``None`` while another live owner holds it.

        Already holding the lease is idempotent (returns the current
        attempt).  A stale or corrupt lease is reclaimed with the
        attempt count bumped, so crash loops are visible to whichever
        runner picks the job up next.
        """
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if self._try_create(path, key, 1):
            self.claims += 1
            return 1
        state = self.read(key)
        if state is None:
            # Released between our create attempt and read; retry once.
            if self._try_create(path, key, 1):
                self.claims += 1
                return 1
            return None
        if state.valid and state.owner == self.owner:
            return state.attempt
        if state.valid and state.age_s <= self.ttl_s:
            return None  # held by a live foreign owner
        attempt = self._reclaim(path, key)
        if attempt is not None:
            self.claims += 1
            self.reclaims += 1
        return attempt

    def _reclaim(self, path: str, key: str) -> Optional[int]:
        """Break a stale lease and re-claim it with ``attempt + 1``.

        Reclaimers serialise on a guard FileLock so two runners cannot
        both unlink-and-recreate (which could lose an attempt bump);
        staleness is re-verified under the guard because the original
        holder may have heartbeat in the meantime.
        """
        guard = FileLock(
            path + ".break",
            timeout_s=5.0,
            poll_s=0.005,
            stale_s=max(self.ttl_s, 5.0),
        )
        try:
            guard.acquire()
        except LockTimeout:
            return None
        try:
            state = self.read(key)
            if state is None:
                return 1 if self._try_create(path, key, 1) else None
            if state.valid and state.owner == self.owner:
                return state.attempt
            if state.valid and state.age_s <= self.ttl_s:
                return None  # holder woke up; lease is fresh again
            attempt = state.attempt + 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return attempt if self._try_create(path, key, attempt) else None
        finally:
            guard.release()

    # -- lifecycle -------------------------------------------------------

    def heartbeat(self, key: str) -> bool:
        """Refresh the lease's mtime; returns False when it is gone."""
        return heartbeat_path(self.path_for(key))

    def bump(self, key: str) -> Optional[int]:
        """Increment the attempt count on a lease *we* hold (within-host
        requeue after a worker death).  Returns the new attempt."""
        state = self.read(key)
        if state is None or not state.valid or state.owner != self.owner:
            return None
        attempt = state.attempt + 1
        path = self.path_for(key)
        payload = json.dumps({
            "format": LEASE_FORMAT,
            "schema_version": LEASE_SCHEMA_VERSION,
            "key": key,
            "owner": self.owner,
            "pid": os.getpid(),
            "attempt": attempt,
            "claimed_at": time.time(),
        })
        try:
            atomic_write(path, payload.encode())
        except OSError:
            return None
        return attempt

    def release(self, key: str) -> bool:
        """Drop a lease we own.  Never unlinks a foreign holder's lease
        (mirrors the :class:`FileLock` ownership fix)."""
        state = self.read(key)
        if state is None or not state.valid or state.owner != self.owner:
            return False
        try:
            os.unlink(state.path)
        except OSError:
            return False
        self.releases += 1
        return True

    # -- quarantine ------------------------------------------------------

    def quarantine(self, key: str, info: Dict[str, Any]) -> str:
        """Record ``key`` as poison in a machine-readable manifest and
        drop our lease; returns the manifest path."""
        path = self.quarantine_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        manifest = {
            "format": QUARANTINE_FORMAT,
            "schema_version": LEASE_SCHEMA_VERSION,
            "key": key,
            "owner": self.owner,
            "quarantined_at": time.time(),
        }
        manifest.update(info)
        text = json.dumps(manifest, indent=2, default=repr) + "\n"
        atomic_write(path, text.encode())
        self.release(key)
        return path

    def is_quarantined(self, key: str) -> Optional[Dict[str, Any]]:
        """The quarantine manifest for ``key``, or ``None``."""
        try:
            with open(self.quarantine_path(key), "r") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        return data if data.get("format") == QUARANTINE_FORMAT else None

    def quarantined(self) -> List[Dict[str, Any]]:
        """All quarantine manifests in the directory, sorted by key."""
        qdir = os.path.join(self.directory, "quarantine")
        try:
            names = sorted(os.listdir(qdir))
        except OSError:
            return []
        found = []
        for name in names:
            if not name.endswith(".json"):
                continue
            manifest = self.is_quarantined(name[: -len(".json")])
            if manifest is not None:
                found.append(manifest)
        return found

    def clear_quarantine(self, key: str) -> bool:
        """Remove a quarantine manifest (operator override)."""
        try:
            os.unlink(self.quarantine_path(key))
        except OSError:
            return False
        return True


def heartbeat_path(path: str) -> bool:
    """Refresh a lease file's mtime by path (used by workers that hold
    only the path, not a manager).  Returns False when it is gone."""
    try:
        os.utime(path, None)
    except OSError:
        return False
    return True


def open_leases(
    directory: Optional[str],
    owner: Optional[str] = None,
    ttl_s: float = 30.0,
) -> Optional[LeaseManager]:
    """``None``-propagating constructor, mirroring :func:`open_cache`."""
    if not directory:
        return None
    return LeaseManager(directory, owner=owner, ttl_s=ttl_s)
