"""Versioned epoch checkpoints with corruption detection.

A checkpoint is one blob in the shared format of :mod:`repro.blobstore`
(magic ``spade-checkpoint``, header fields ``epoch``, ``fingerprint``
and ``meta``), written as ``ckpt-epoch-NNNNNN.ckpt``.  The blob rules
give atomic publishing and reject a wrong magic or version, truncation,
a digest mismatch or a payload that does not unpickle; this module maps
each of those to :class:`CheckpointError` and adds the one check of its
own, the config fingerprint of the run that wrote the snapshot.

The config fingerprint leaves out the not-keyed execution backend,
replay mode and resilience section (DESIGN.md section 9.A):
all backends are bit-identical, so a checkpoint written by a vectorized
run is valid to resume under the scalar backend — which is exactly what
the supervisor's degradation step needs.
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, Optional, Tuple

from repro.blobstore import BlobError, read_blob, write_blob
from repro.errors import CheckpointError
from repro.jobmodel import config_fingerprint, key_projection

CHECKPOINT_FORMAT = "spade-checkpoint"
CHECKPOINT_VERSION = 2
"""Bumped whenever the snapshot layout changes, so an older snapshot is
refused instead of mis-loaded.  Version 2: the BBF stream buffer and
the STLB are saved as one-set cache states."""

_CKPT_RE = re.compile(r"^ckpt-epoch-(\d{6})\.ckpt$")


def checkpoint_fingerprint(config) -> str:
    """Digest of the result-relevant part of a :class:`SpadeConfig`:
    its key projection (DESIGN.md section 9.A)."""
    return config_fingerprint(key_projection(config))


class CheckpointManager:
    """Writes and reads epoch snapshots in one directory."""

    def __init__(
        self,
        directory: str,
        interval: int = 1,
        fingerprint: Optional[str] = None,
        chaos=None,
    ) -> None:
        if interval < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.directory = directory
        self.interval = interval
        self.fingerprint = fingerprint
        self._chaos = chaos
        os.makedirs(directory, exist_ok=True)

    # -- writing ---------------------------------------------------------

    def should_write(self, epoch_index: int) -> bool:
        """Checkpoint after epochs interval-1, 2*interval-1, … so an
        interval of N writes every Nth completed epoch."""
        return (epoch_index + 1) % self.interval == 0

    def path_for(self, epoch_index: int) -> str:
        return os.path.join(
            self.directory, f"ckpt-epoch-{epoch_index:06d}.ckpt"
        )

    def write(
        self,
        epoch_index: int,
        state: Dict[str, Any],
        meta: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Atomically write a snapshot for a completed epoch."""
        path = self.path_for(epoch_index)
        write_blob(
            path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, state,
            epoch=epoch_index, fingerprint=self.fingerprint,
            meta=meta or {},
        )
        if self._chaos is not None:
            self._chaos.on_checkpoint_written(path, epoch_index)
        return path

    # -- reading ---------------------------------------------------------

    def read(self, path: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Read and validate one checkpoint; returns (header, state).

        Raises :class:`CheckpointError` on any mismatch — wrong magic or
        version, truncated payload, hash mismatch, a payload that does
        not unpickle, or a fingerprint from a different
        (result-relevant) config.
        """
        try:
            header, state = read_blob(
                path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION
            )
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        except BlobError as exc:
            raise CheckpointError(f"checkpoint {exc}") from exc
        if (
            self.fingerprint is not None
            and header.get("fingerprint") is not None
            and header["fingerprint"] != self.fingerprint
        ):
            raise CheckpointError(
                f"checkpoint {path} was written by a run with a different "
                "configuration (fingerprint mismatch); refusing to resume"
            )
        return header, state

    def list_checkpoints(self):
        """(epoch_index, path) pairs present in the directory, ascending."""
        found = []
        for name in os.listdir(self.directory):
            match = _CKPT_RE.match(name)
            if match:
                found.append(
                    (int(match.group(1)), os.path.join(self.directory, name))
                )
        found.sort()
        return found

    def load_latest(
        self,
    ) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """Load the newest valid checkpoint, falling back to older ones
        if the newest is corrupt.  Returns ``None`` when the directory
        holds no checkpoints at all; raises :class:`CheckpointError`
        when checkpoints exist but none is loadable."""
        candidates = self.list_checkpoints()
        if not candidates:
            return None
        errors = []
        for _, path in reversed(candidates):
            try:
                return self.read(path)
            except CheckpointError as exc:
                errors.append(str(exc))
        raise CheckpointError(
            "no loadable checkpoint in "
            f"{self.directory}: " + "; ".join(errors)
        )
