"""One on-disk blob format, and the sharded store built on it.

The sweep result cache (:mod:`repro.sweep.cache`) and the epoch
checkpoints (:mod:`repro.resilience.checkpoint`) write the same kind of
file: one JSON header line followed by a pickled payload.

.. code-block:: text

    {"format": "<magic>", "version": V, <caller fields>,
     "payload_bytes": N, "payload_sha256": "…"}\\n
    <N bytes of pickle>

**Trust rule.**  :func:`read_blob` unpickles a payload only after the
magic, the version, every caller field (a content key, a schema
version, an epoch), the payload length and the payload sha256 all
match.  The digest catches accidents (truncation, bit rot, a foreign
file under our name), not adversaries: a store directory is trusted
like the code that reads it.  A payload that passes every check but
still does not unpickle is rejected the same way, so callers see one
failure, :class:`BlobError`, whatever went wrong inside the file.

**Publishing.**  :func:`write_blob` goes through
:func:`repro.locks.atomic_write`: a writer-unique ``O_EXCL`` temp file,
fsync, then ``os.replace``.  A reader sees the old file or the new one,
never a torn one.  Two writers of one path race benignly: both publish
complete files (for content-addressed keys, identical ones) and the
last rename wins.

:class:`BlobStore` lays blobs out git-style
(``<dir>/<key[:2]>/<key><suffix>``) so large sweeps do not pile 10^5
files into one directory, and treats any :class:`BlobError` as a miss
that evicts the file, so a bad slot heals on the next write.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import json
import os
import pickle
from typing import Any, Dict, List, Tuple

from repro.errors import SpadeError
from repro.locks import atomic_write


class BlobError(SpadeError):
    """A blob exists and was read but cannot be trusted; the message
    says why."""


def write_blob(
    path: str, fmt: str, version: int, value: Any, **fields: Any
) -> None:
    """Atomically publish ``value`` at ``path`` under a header carrying
    ``fmt``, ``version`` and ``fields``."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "format": fmt,
        "version": version,
        **fields,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    atomic_write(path, json.dumps(header).encode() + b"\n" + payload)


def read_blob(
    path: str, fmt: str, version: int, **fields: Any
) -> Tuple[Dict[str, Any], Any]:
    """Read and validate the blob at ``path``; returns ``(header,
    value)``.

    Raises :class:`OSError` when the file cannot be read and
    :class:`BlobError` when it can but fails any check of the trust
    rule (module docstring).
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line)
    except (ValueError, UnicodeDecodeError):
        header = None
    if not isinstance(header, dict):
        raise BlobError(f"{path} has an unreadable header")
    for name, expected in (("format", fmt), ("version", version),
                           *fields.items()):
        if header.get(name) != expected:
            raise BlobError(
                f"{path} has {name} {header.get(name)!r}, "
                f"expected {expected!r}"
            )
    if len(payload) != header.get("payload_bytes"):
        raise BlobError(
            f"{path} is truncated: expected {header.get('payload_bytes')}"
            f" payload bytes, found {len(payload)}"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise BlobError(
            f"{path} failed its integrity check (payload sha256 mismatch)"
        )
    try:
        value = pickle.loads(payload)
    except Exception as exc:
        raise BlobError(f"{path} has a payload that does not unpickle") from exc
    return header, value


class BlobStore:
    """Sharded content-addressed directory of blobs of one format.

    Every entry's header carries its ``key`` plus the store's constant
    ``fields``; all of them are checked on read.
    """

    def __init__(
        self, directory: str, fmt: str, version: int, suffix: str,
        **fields: Any,
    ) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.fmt = fmt
        self.version = version
        self.suffix = suffix
        self.fields = fields
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + self.suffix)

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; a missing entry is a miss, and an
        untrusted one is a miss that is evicted."""
        path = self.path_for(key)
        try:
            _, value = read_blob(
                path, self.fmt, self.version, key=key, **self.fields
            )
        except OSError:
            self.misses += 1
            return False, None
        except BlobError:
            with contextlib.suppress(OSError):
                os.unlink(path)
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> str:
        """Atomically store ``value`` under ``key``; returns the path."""
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_blob(
            path, self.fmt, self.version, value, key=key, **self.fields
        )
        self.writes += 1
        return path

    def keys(self) -> List[str]:
        """Every key currently stored, sorted.  Only two-character shard
        directories are searched (which hides dot-directories, such as
        the coordination state older releases kept in a result cache),
        and leftover temp files
        (``.<name>.<pid>.<n>.tmp``) do not end in the suffix."""
        pattern = os.path.join(
            glob.escape(self.directory), "??", "*" + self.suffix
        )
        return sorted(
            os.path.basename(p)[: -len(self.suffix)]
            for p in glob.glob(pattern)
        )

    def __len__(self) -> int:
        return len(self.keys())
