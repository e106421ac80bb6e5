"""Content-addressed on-disk store for sweep job results.

One blob per job key at ``<dir>/ab/<key>.res``, in the shared format of
:mod:`repro.blobstore` (magic ``spade-sweep-result``, header fields
``key`` and ``schema_version``).  An entry is only trusted when every
header check passes; anything else (truncation, a foreign file, a
payload that does not unpickle) reads as a cache *miss* and the file is
removed so the slot heals itself.  Two writers completing the same job
race benignly, whether pool workers or separate processes sharing the
directory: both publish identical bytes and the last rename wins.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.blobstore import BlobStore
from repro.jobmodel import SWEEP_SCHEMA_VERSION

RESULT_FORMAT = "spade-sweep-result"
RESULT_VERSION = 1


class ResultCache(BlobStore):
    """Content-addressed result store shared by sweep workers."""

    def __init__(self, directory: str) -> None:
        super().__init__(
            directory, RESULT_FORMAT, RESULT_VERSION, ".res",
            schema_version=SWEEP_SCHEMA_VERSION,
        )

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; corrupt or foreign entries are
        treated as misses and evicted."""
        # Defined on this class (not only inherited) so a profiler that
        # wraps ``ResultCache.get`` finds it in the class body.
        return super().get(key)


def open_cache(directory: Optional[str]) -> Optional[ResultCache]:
    """``None``-propagating constructor for CLI/driver plumbing."""
    return ResultCache(directory) if directory else None
