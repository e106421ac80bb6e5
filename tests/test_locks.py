"""Unit tests for the cross-process locking primitives."""

import os
import time

import pytest

import repro.locks
from repro.locks import FileLock, LockTimeout, atomic_write, exclusive_tmp_path


class TestFileLock:
    def test_acquire_release_cycle(self, tmp_path):
        lock = FileLock(str(tmp_path / "x.lock"), timeout_s=1.0)
        with lock:
            assert lock.held
            assert os.path.exists(lock.path)
        assert not lock.held
        assert not os.path.exists(lock.path)

    def test_contention_times_out(self, tmp_path):
        path = str(tmp_path / "x.lock")
        with FileLock(path, timeout_s=1.0):
            blocked = FileLock(
                path, timeout_s=0.05, poll_s=0.01, stale_s=None
            )
            with pytest.raises(LockTimeout):
                blocked.acquire()

    def test_stale_lock_is_broken(self, tmp_path):
        path = str(tmp_path / "x.lock")
        with open(path, "w") as fh:
            fh.write("999999")  # dead holder
        old = time.time() - 3600
        os.utime(path, (old, old))
        lock = FileLock(path, timeout_s=1.0, stale_s=60.0)
        with lock:
            assert lock.held

    def test_future_mtime_reads_as_fresh_not_negative(self, tmp_path):
        # Regression: clock skew (or a touched lockfile) can put the
        # mtime in the future.  The age must clamp to 0 — a fresh lock
        # that contenders wait on — never a negative number.
        path = str(tmp_path / "x.lock")
        with open(path, "w") as fh:
            fh.write("123")
        future = time.time() + 3600
        os.utime(path, (future, future))
        lock = FileLock(path, timeout_s=0.05, poll_s=0.01, stale_s=60.0)
        lock._break_if_stale()
        assert os.path.exists(path)  # not treated as stale
        with pytest.raises(LockTimeout):
            lock.acquire()  # still held by the (future-dated) owner
        # Negative stale_s is pathological config; the clamp keeps even
        # that from breaking a future-dated lock (age 0 > negative is
        # True, so it *would* break — assert the clamp floor first).
        st = os.stat(path)
        assert max(0.0, time.time() - st.st_mtime) == 0.0


    def test_release_does_not_unlink_a_stolen_lock(self, tmp_path):
        # Regression: holder A's lock goes stale, B breaks it and
        # re-acquires.  When A finally calls release(), it must leave
        # B's lockfile alone — the owner token makes release verify
        # before unlinking.
        path = str(tmp_path / "x.lock")
        a = FileLock(path, timeout_s=1.0, stale_s=60.0)
        a.acquire()
        old = time.time() - 3600
        os.utime(path, (old, old))  # A looks dead
        b = FileLock(path, timeout_s=1.0, stale_s=60.0)
        b.acquire()  # breaks A's stale lock and claims it
        a.release()  # A wakes up late
        assert os.path.exists(path), "A deleted B's lockfile"
        assert b.held
        b.release()
        assert not os.path.exists(path)

    def test_release_after_clean_break_is_quiet(self, tmp_path):
        path = str(tmp_path / "x.lock")
        lock = FileLock(path, timeout_s=1.0)
        lock.acquire()
        os.unlink(path)  # someone broke it entirely
        lock.release()  # must not raise
        assert not lock.held

    def test_owner_token_contains_pid(self, tmp_path):
        # The pid prefix keeps stale-lock diagnosis possible (the old
        # content was just the pid).
        path = str(tmp_path / "x.lock")
        with FileLock(path, timeout_s=1.0):
            content = open(path).read()
        assert content.split(":")[0] == str(os.getpid())

    def test_backoff_grows_and_caps(self, tmp_path, monkeypatch):
        # Contended polling must back off exponentially (with jitter in
        # [delay/2, delay]) up to max_poll_s, not spin at a fixed rate.
        sleeps = []

        def record(seconds):
            sleeps.append(seconds)
            time.sleep(0.002)  # keep the contended loop bounded

        monkeypatch.setattr(repro.locks, "_sleep", record)
        path = str(tmp_path / "x.lock")
        with FileLock(path, timeout_s=1.0):
            blocked = FileLock(
                path, timeout_s=0.2, poll_s=0.01, stale_s=None,
                max_poll_s=0.04,
            )
            with pytest.raises(LockTimeout):
                blocked.acquire()
        assert len(sleeps) >= 4
        # First probe's sleep comes from the base delay (jitter can
        # halve it, never raise it).
        assert 0.005 <= sleeps[0] <= 0.01
        assert 0.01 <= sleeps[1] <= 0.02
        # Two doublings reach max_poll_s and stay capped there (the
        # last sleep may be truncated to the deadline, so skip it).
        for s in sleeps[2:4]:
            assert 0.02 <= s <= 0.04
        for s in sleeps:
            assert s <= 0.04 + 1e-9

    def test_uncontended_acquire_never_sleeps(self, tmp_path, monkeypatch):
        # First-probe latency must be unchanged by the backoff.
        sleeps = []
        monkeypatch.setattr(
            repro.locks, "_sleep", lambda s: sleeps.append(s)
        )
        with FileLock(str(tmp_path / "x.lock"), timeout_s=1.0):
            pass
        assert sleeps == []


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
