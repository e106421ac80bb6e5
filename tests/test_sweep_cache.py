"""Unit tests for the result cache, the temp-file primitive, and the
shared-directory write-collision regression (cache AND checkpoints)."""

import json
import multiprocessing
import os

import pytest

from repro.locks import exclusive_tmp_path
from repro.resilience.checkpoint import CheckpointManager
from repro.sweep import ResultCache, open_cache

KEY = "ab" + "c" * 62
OTHER = "ab" + "d" * 62


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(KEY) == (False, None)
        cache.put(KEY, {"rows": [1, 2, 3]})
        assert cache.get(KEY) == (True, {"rows": [1, 2, 3]})
        assert cache.hits == 1 and cache.misses == 1 and cache.writes == 1

    def test_sharded_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, 1)
        assert os.path.isfile(tmp_path / KEY[:2] / f"{KEY}.res")
        assert cache.keys() == [KEY]
        assert len(cache) == 1

    def test_header_is_self_describing_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(KEY, "payload")
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["format"] == "spade-sweep-result"
        assert header["key"] == KEY
        assert header["payload_bytes"] > 0

    def test_leftover_tmp_files_are_not_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, 1)
        shard = tmp_path / KEY[:2]
        (shard / f".{OTHER}.res.999.0.tmp").write_bytes(b"partial")
        assert cache.keys() == [KEY]

    def test_open_cache_none_propagates(self, tmp_path):
        assert open_cache(None) is None
        assert open_cache(tmp_path) is not None


class TestExclusiveTmpPath:
    def test_unique_per_call(self, tmp_path):
        target = str(tmp_path / "file.res")
        tmps = {exclusive_tmp_path(target) for _ in range(32)}
        assert len(tmps) == 32
        for tmp in tmps:
            assert os.path.exists(tmp)
            assert os.path.basename(tmp).startswith(".file.res.")

    def test_skips_existing_leftovers(self, tmp_path, monkeypatch):
        """If a leftover file occupies the next candidate name (pid
        recycling), the next counter value is used instead of opening
        the existing file."""
        import itertools

        import repro.locks as locks

        target = str(tmp_path / "file.res")
        monkeypatch.setattr(locks, "_TMP_COUNTER", itertools.count())
        squatter = tmp_path / f".file.res.{os.getpid()}.0.tmp"
        squatter.write_bytes(b"old writer's bytes")
        tmp = exclusive_tmp_path(target)
        assert tmp != str(squatter)
        assert open(str(squatter), "rb").read() == b"old writer's bytes"
        assert open(tmp, "rb").read() == b""


def _worker_put(args):
    directory, key, tag, count = args
    cache = ResultCache(directory)
    for i in range(count):
        cache.put(key, {"writer": tag, "iteration": i, "pad": "x" * 4096})
    return tag


class TestForcedCollisions:
    """Regression tests for the shared-directory write collision: many
    writers hammering the same key must never publish spliced bytes."""

    def test_cache_collision_across_processes(self, tmp_path):
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        args = [(str(tmp_path), KEY, tag, 10) for tag in range(4)]
        with ctx.Pool(processes=4) as pool:
            pool.map(_worker_put, args)
        cache = ResultCache(tmp_path)
        hit, value = cache.get(KEY)
        assert hit, "racing writers must leave a valid entry"
        assert value["writer"] in range(4) and value["pad"] == "x" * 4096
        # No temp-file debris survives a clean run.
        debris = [
            name
            for name in os.listdir(tmp_path / KEY[:2])
            if name.endswith(".tmp")
        ]
        assert debris == []

    def test_checkpoint_collision_same_epoch(self, tmp_path):
        """Two managers snapshotting the same epoch into one directory
        (the pre-fix broken case: both opened ``path + '.tmp'``)."""
        a = CheckpointManager(str(tmp_path), fingerprint="f" * 64)
        b = CheckpointManager(str(tmp_path), fingerprint="f" * 64)
        state_a = {"epoch": 7, "writer": "a", "pad": list(range(2000))}
        state_b = {"epoch": 7, "writer": "b", "pad": list(range(2000))}

        # Interleave the writes at the tmp-file level: both create
        # their tmp before either publishes.  With a shared tmp name
        # this produced spliced bytes; with O_EXCL names both writes
        # are intact and the last rename wins.
        import repro.resilience.checkpoint as ckpt_mod

        published = []
        real_replace = os.replace

        def delayed_replace(src, dst):
            published.append(src)
            if len(published) == 1:
                # First writer publishes only after the second's write
                # completed: emulated by writing b inline here.
                b.write(7, state_b)
            real_replace(src, dst)

        ckpt_mod.os.replace = delayed_replace
        try:
            a.write(7, state_a)
        finally:
            ckpt_mod.os.replace = real_replace

        header, state = a.load_latest()
        assert header["epoch"] == 7
        assert state["writer"] in ("a", "b")
        assert state["pad"] == list(range(2000)), "payload must be intact"

    def test_checkpoint_write_failure_cleans_tmp(self, tmp_path, monkeypatch):
        mgr = CheckpointManager(str(tmp_path), fingerprint="f" * 64)
        monkeypatch.setattr(
            os, "fsync", lambda fd: (_ for _ in ()).throw(OSError("disk"))
        )
        with pytest.raises(OSError):
            mgr.write(0, {"x": 1})
        leftovers = [
            n for n in os.listdir(tmp_path) if n.endswith(".tmp")
        ]
        assert leftovers == []
