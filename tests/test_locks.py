"""Unit tests for the cross-process publishing primitives."""

import os

import pytest

from repro.locks import atomic_write, exclusive_tmp_path


class TestExclusiveTmpPath:
    def test_distinct_paths_per_call(self, tmp_path):
        target = str(tmp_path / "payload.json")
        a = exclusive_tmp_path(target)
        b = exclusive_tmp_path(target)
        assert a != b
        assert os.path.exists(a) and os.path.exists(b)

    def test_publish_via_replace(self, tmp_path):
        target = str(tmp_path / "payload.json")
        tmp = exclusive_tmp_path(target)
        with open(tmp, "w") as fh:
            fh.write("{}")
        os.replace(tmp, target)
        assert open(target).read() == "{}"


class TestAtomicWrite:
    def test_publishes_bytes_without_debris(self, tmp_path):
        target = str(tmp_path / "payload.json")
        atomic_write(target, b"{}")
        atomic_write(target, b"[]")
        assert open(target, "rb").read() == b"[]"
        assert os.listdir(tmp_path) == ["payload.json"]

    def test_failure_keeps_old_file_and_cleans_tmp(
        self, tmp_path, monkeypatch
    ):
        target = str(tmp_path / "payload.json")
        atomic_write(target, b"old")

        def broken_fsync(fd):
            raise OSError("disk")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="disk"):
            atomic_write(target, b"new")
        assert open(target, "rb").read() == b"old"
        assert os.listdir(tmp_path) == ["payload.json"]
