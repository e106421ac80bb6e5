"""The shared blob format and its two users.

One corruption suite runs over the sweep result cache and the
checkpoint manager: every way a file can be bad is a miss that evicts
the entry for the cache, and a :class:`~repro.errors.CheckpointError`
(with an older valid snapshot still loadable) for checkpoints.  Byte-literal files in the header
field order of the previous, per-store writers pin on-disk
compatibility.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.blobstore import BlobError, read_blob, write_blob
from repro.errors import CheckpointError
from repro.resilience.checkpoint import CheckpointManager
from repro.sweep.cache import ResultCache

KEY = "ab" + "c" * 62
FINGERPRINT = "f" * 64
VALUE = {"v": 1}


def _split(raw: bytes):
    header, payload = raw.split(b"\n", 1)
    return json.loads(header), payload


def _join(header, payload: bytes) -> bytes:
    return json.dumps(header).encode() + b"\n" + payload


def _edit_header(field, change):
    """Rewrite one header field; ``"ident"`` names the field that ties a
    file to its reader (the store key, or the checkpoint fingerprint)."""

    def corrupt(raw, ident):
        header, payload = _split(raw)
        name = ident if field == "ident" else field
        header[name] = change(header[name])
        return _join(header, payload)

    return corrupt


def _not_a_pickle(raw, ident):
    """A correct header, length and digest over bytes that are not a
    pickle: only unpickling can tell."""
    header, _ = _split(raw)
    payload = b"not a pickle"
    header["payload_bytes"] = len(payload)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    return _join(header, payload)


# name -> (corrupt(raw, ident) -> bytes, CheckpointError match)
CORRUPTIONS = {
    "truncate": (lambda raw, ident: raw[:-3], "truncated"),
    "bit_flip": (
        lambda raw, ident: raw[:-1] + bytes([raw[-1] ^ 0xFF]),
        "integrity",
    ),
    "garbage_header": (
        lambda raw, ident: b"not json\n" + raw, "unreadable header"
    ),
    "wrong_magic": (
        _edit_header("format", lambda _: "other"), "spade-checkpoint"
    ),
    "wrong_version": (_edit_header("version", lambda v: v - 1), "version"),
    "wrong_key": (_edit_header("ident", lambda _: "0" * 64), "fingerprint"),
    "not_pickle": (_not_a_pickle, "unpickle"),
}


class _StoreCase:
    """A content-addressed store: bad entries are evicted misses."""

    ident = "key"

    def __init__(self, cls, directory):
        self.store = cls(str(directory))

    def write(self):
        return self.store.put(KEY, VALUE)

    def check_rejected(self, path, match):
        assert self.store.get(KEY) == (False, None)
        assert self.store.misses == 1 and self.store.hits == 0
        assert not os.path.exists(path), "corrupt entry must self-evict"
        # The slot heals: a rewrite hits again.
        self.store.put(KEY, VALUE)
        assert self.store.get(KEY) == (True, VALUE)

    def check_loadable(self):
        assert self.store.keys() == [KEY]
        assert self.store.get(KEY) == (True, VALUE)


class _CheckpointCase:
    """Checkpoints: a bad snapshot raises, an older valid one loads."""

    ident = "fingerprint"

    def __init__(self, directory):
        self.mgr = CheckpointManager(str(directory), fingerprint=FINGERPRINT)

    def write(self):
        self.mgr.write(0, {"epoch": 0})
        return self.mgr.write(1, VALUE)

    def check_rejected(self, path, match):
        with pytest.raises(CheckpointError, match=match):
            self.mgr.read(path)
        header, state = self.mgr.load_latest()
        assert header["epoch"] == 0 and state == {"epoch": 0}

    def check_loadable(self):
        assert [e for e, _ in self.mgr.list_checkpoints()] == [0, 1]
        header, state = self.mgr.load_latest()
        assert header["epoch"] == 1 and state == VALUE


CASES = {
    "ResultCache": lambda d: _StoreCase(ResultCache, d),
    "CheckpointManager": _CheckpointCase,
}


@pytest.fixture(params=sorted(CASES))
def case(request, tmp_path):
    return CASES[request.param](tmp_path)


class TestCorruption:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_file_is_rejected(self, case, corruption):
        corrupt, match = CORRUPTIONS[corruption]
        path = case.write()
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(corrupt(raw, case.ident))
        case.check_rejected(path, match)

    def test_leftover_tmp_files_are_ignored(self, case):
        path = case.write()
        directory, name = os.path.split(path)
        with open(
            os.path.join(directory, f".{name}.999.0.tmp"), "wb"
        ) as fh:
            fh.write(b"partial")
        case.check_loadable()


# Files as the per-store writers before the shared module laid them
# out: pickle protocol 5 of {"v": 1}, headers in their field order.
_PAYLOAD = (
    b"\x80\x05\x95\n\x00\x00\x00\x00\x00\x00\x00}\x94\x8c\x01v\x94K\x01s."
)
_DIGEST = "78c765b1e3eb66bd61efba992dc3e74694fb318aa21c6fb1a95dc893a4bbe021"
LEGACY_FILES = {
    "ResultCache": (
        b'{"format": "spade-sweep-result", "version": 1, "key": "'
        + KEY.encode()
        + b'", "schema_version": 1, "payload_bytes": 21, "payload_sha256": "'
        + _DIGEST.encode()
        + b'"}\n'
        + _PAYLOAD
    ),
    "CheckpointManager": (
        b'{"format": "spade-checkpoint", "version": 2, "epoch": 0,'
        b' "fingerprint": "'
        + FINGERPRINT.encode()
        + b'", "payload_bytes": 21, "payload_sha256": "'
        + _DIGEST.encode()
        + b'", "meta": {"primitive": "spmm"}}\n'
        + _PAYLOAD
    ),
}


class TestCrossVersion:
    @pytest.mark.parametrize("kind", ["ResultCache"])
    def test_legacy_store_entry_is_a_hit(self, tmp_path, kind):
        store = CASES[kind](tmp_path).store
        path = store.path_for(KEY)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(LEGACY_FILES[kind])
        assert store.get(KEY) == (True, VALUE)

    def test_legacy_checkpoint_loads(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), fingerprint=FINGERPRINT)
        with open(mgr.path_for(0), "wb") as fh:
            fh.write(LEGACY_FILES["CheckpointManager"])
        header, state = mgr.load_latest()
        assert header["epoch"] == 0
        assert header["meta"] == {"primitive": "spmm"}
        assert state == VALUE


class TestBlob:
    def test_round_trip_keeps_fields(self, tmp_path):
        path = str(tmp_path / "x.blob")
        write_blob(path, "fmt", 3, [1, 2], key="k", epoch=7)
        header, value = read_blob(path, "fmt", 3, key="k", epoch=7)
        assert value == [1, 2]
        assert header["key"] == "k" and header["epoch"] == 7
        assert os.listdir(tmp_path) == ["x.blob"]

    def test_wrong_field_names_the_field(self, tmp_path):
        path = str(tmp_path / "x.blob")
        write_blob(path, "fmt", 3, None, key="k")
        with pytest.raises(BlobError, match="key 'k', expected 'other'"):
            read_blob(path, "fmt", 3, key="other")

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            read_blob(str(tmp_path / "absent"), "fmt", 3)

    def test_non_object_header_is_unreadable(self, tmp_path):
        path = tmp_path / "x.blob"
        path.write_bytes(b"[1, 2]\n")
        with pytest.raises(BlobError, match="unreadable header"):
            read_blob(str(path), "fmt", 3)


class TestKeys:
    def test_result_cache_get_is_its_own(self):
        """Profilers wrap ``ResultCache.get`` through the class dict; an
        inherited ``get`` would be skipped."""
        assert "get" in ResultCache.__dict__
