"""Checkpoint/resume: state round-trips, corruption handling, and
kill-then-resume bit-exactness across all execution backends."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.config import ResilienceConfig, scaled_config
from repro.core import accelerator
from repro.core.accelerator import KernelSettings, SpadeSystem
from repro.core.pe import ProcessingElement
from repro.errors import CheckpointError
from repro.memory.hierarchy import MemorySystem
from repro.resilience import (
    ChaosConfig,
    ChaosMonkey,
    CheckpointManager,
    InjectedCrash,
    checkpoint_fingerprint,
)
from repro.sparse.generators import rmat_graph

BACKENDS = ("scalar", "vectorized")

MULTI_EPOCH_SETTINGS = KernelSettings(
    row_panel_size=32, col_panel_size=64, use_barriers=True
)


def fingerprint(report) -> dict:
    """Everything a resumed run must reproduce exactly."""
    out = np.ascontiguousarray(report.output)
    return {
        "time_ns": report.result.time_ns,
        "compute_time_ns": report.result.compute_time_ns,
        "epochs": len(report.result.epoch_timings),
        "epoch_times": [
            t.epoch_time_ns for t in report.result.epoch_timings
        ],
        "per_pe_time_ns": report.result.per_pe_time_ns,
        "counters": dataclasses.asdict(report.result.counters),
        "stats": report.result.stats.summary(),
        "output_sha256": hashlib.sha256(out.tobytes()).hexdigest(),
    }


@pytest.fixture(scope="module")
def workload():
    a = rmat_graph(scale=8, seed=5)
    b = np.random.default_rng(0).random((a.num_cols, 16), dtype=np.float32)
    b_r = np.random.default_rng(1).random((a.num_rows, 16), dtype=np.float32)
    return a, b, b_r


@pytest.fixture(scope="module")
def base_config():
    return scaled_config(4, cache_shrink=8)


@pytest.fixture(scope="module")
def golden(workload, base_config):
    a, b, _ = workload
    report = SpadeSystem(base_config).spmm(
        a, b, settings=MULTI_EPOCH_SETTINGS
    )
    assert len(report.result.epoch_timings) >= 3, (
        "kill-then-resume needs a multi-epoch schedule"
    )
    return report


class TestStateRoundTrips:
    def test_memory_system_state_round_trip(self, base_config, workload):
        a, b, _ = workload
        system = SpadeSystem(base_config)
        system.spmm(a, b)
        # Drive one memory system, snapshot it, restore into a fresh one.
        mem = MemorySystem(base_config)
        for line in range(0, 500, 3):
            mem.dense_access(0, line, region="rmatrix")
            mem.stream_access(1, line + 1, region="sparse")
        state = mem.state_dict()
        fresh = MemorySystem(base_config)
        fresh.load_state_dict(state)
        assert fresh.state_dict() == state
        assert fresh.collect_stats().summary() == mem.collect_stats().summary()
        # Post-restore behaviour matches: same access, same service level.
        assert fresh.dense_access(0, 3, region="rmatrix") == mem.dense_access(
            0, 3, region="rmatrix"
        )

    def test_memory_state_rejects_wrong_geometry(self, base_config):
        mem = MemorySystem(base_config)
        state = mem.state_dict()
        other = MemorySystem(scaled_config(8, cache_shrink=8))
        with pytest.raises(ValueError):
            other.load_state_dict(state)

    def test_vrf_state_round_trip(self):
        from repro.core.vrf import VectorRegisterFile

        vrf = VectorRegisterFile(8)
        for line in (1, 2, 3, 1, 9, 2, 11, 12, 13, 14):
            vrf.access(line, mark_dirty=line % 2 == 0)
        state = vrf.state_dict()
        fresh = VectorRegisterFile(8)
        fresh.load_state_dict(state)
        assert fresh.state_dict() == state
        assert fresh.access(5, mark_dirty=True) == vrf.access(
            5, mark_dirty=True
        )


class TestCheckpointFiles:
    def test_write_then_read_round_trip(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), fingerprint="f" * 64)
        state = {"next_epoch": 2, "output": np.arange(6.0)}
        path = mgr.write(1, state, meta={"primitive": "spmm"})
        header, loaded = mgr.read(path)
        assert header["epoch"] == 1
        assert header["meta"] == {"primitive": "spmm"}
        assert loaded["next_epoch"] == 2
        np.testing.assert_array_equal(loaded["output"], state["output"])

    def test_truncated_checkpoint_is_rejected(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.write(0, {"payload": list(range(1000))})
        size = path and __import__("os").path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(CheckpointError, match="truncated"):
            mgr.read(path)

    def test_bit_flip_is_rejected(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.write(0, {"payload": list(range(1000))})
        with open(path, "r+b") as fh:
            data = fh.read()
            fh.seek(len(data) - 10)
            fh.write(b"\x00" if data[-10:-9] != b"\x00" else b"\x01")
        with pytest.raises(CheckpointError, match="integrity"):
            mgr.read(path)

    def test_wrong_magic_is_rejected(self, tmp_path):
        bad = tmp_path / "ckpt-epoch-000000.ckpt"
        bad.write_bytes(json.dumps({"format": "other"}).encode() + b"\n")
        mgr = CheckpointManager(str(tmp_path))
        with pytest.raises(CheckpointError, match="spade-checkpoint"):
            mgr.read(str(bad))

    def test_old_version_is_refused(self, tmp_path, monkeypatch):
        """A snapshot from an older layout is refused by its header,
        never unpickled into the current memory-system classes."""
        from repro.resilience import checkpoint

        mgr = CheckpointManager(str(tmp_path))
        monkeypatch.setattr(
            checkpoint, "CHECKPOINT_VERSION", checkpoint.CHECKPOINT_VERSION - 1
        )
        path = mgr.write(0, {"memory": {"bbfs": [{"buffer": []}]}})
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match="version 1"):
            mgr.read(path)
        with pytest.raises(CheckpointError, match="version"):
            mgr.load_latest()

    def test_fingerprint_mismatch_is_rejected(self, tmp_path):
        writer = CheckpointManager(str(tmp_path), fingerprint="a" * 64)
        path = writer.write(0, {"x": 1})
        reader = CheckpointManager(str(tmp_path), fingerprint="b" * 64)
        with pytest.raises(CheckpointError, match="fingerprint"):
            reader.read(path)

    def test_load_latest_falls_back_to_older_valid(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        mgr.write(0, {"epoch": 0})
        newest = mgr.write(1, {"epoch": 1})
        with open(newest, "r+b") as fh:
            fh.truncate(5)
        header, state = mgr.load_latest()
        assert header["epoch"] == 0
        assert state == {"epoch": 0}

    def test_load_latest_empty_dir_returns_none(self, tmp_path):
        assert CheckpointManager(str(tmp_path)).load_latest() is None

    def test_load_latest_all_corrupt_raises(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.write(0, {"x": 1})
        with open(path, "r+b") as fh:
            fh.truncate(3)
        with pytest.raises(CheckpointError, match="no loadable"):
            mgr.load_latest()

    def test_interval_controls_cadence(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path), interval=3)
        assert [e for e in range(9) if mgr.should_write(e)] == [2, 5, 8]

    def test_fingerprint_unchanged_by_dropping_pipeline_section(self):
        # The digest of this config from before SpadeConfig lost its
        # (excluded) pipeline section: snapshots written then still
        # resume.
        assert checkpoint_fingerprint(
            scaled_config(4, cache_shrink=8)
        ) == (
            "2df5c2b3248f308daff43ea57ceccdabc3e8b9a02e21d65ac411db1388380a27"
        )


def final_memory(monkeypatch, config, a, b, **kwargs):
    """Run SpMM under ``config`` and return the report with the pickled
    ``state_dict()`` of the run's final memory hierarchy (``SpadeSystem``
    drops its engine after a run; a subclass keeps it reachable)."""
    engines = []

    class KeptEngine(accelerator.Engine):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            engines.append(self)

    with monkeypatch.context() as mp:
        mp.setattr(accelerator, "Engine", KeptEngine)
        report = SpadeSystem(config, **kwargs).spmm(
            a, b, settings=MULTI_EPOCH_SETTINGS
        )
    return report, pickle.dumps(engines[-1].memory.state_dict())


class TestKillAndResume:
    def _with_resilience(self, config, backend, **res):
        return dataclasses.replace(
            config,
            execution=backend,
            resilience=ResilienceConfig(**res),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kill_then_resume_is_bit_identical(
        self, tmp_path, workload, base_config, golden, backend, monkeypatch
    ):
        """Killed halfway with a checkpoint after every epoch, the resumed
        run gives the uninterrupted run's facts and final memory state,
        pickled byte for byte.  Under array replay every checkpoint reads
        the residents out of the compiled replay's states."""
        a, b, _ = workload
        assert base_config.replay == "array"
        kill_at = len(golden.result.epoch_timings) // 2
        cfg = self._with_resilience(
            base_config, backend, checkpoint_dir=str(tmp_path),
            checkpoint_interval=1,
        )
        _, uninterrupted = final_memory(
            monkeypatch, self._with_resilience(base_config, backend), a, b
        )
        monkey = ChaosMonkey(ChaosConfig(kill_after_epoch=kill_at))
        with pytest.raises(InjectedCrash):
            SpadeSystem(cfg, chaos=monkey).spmm(
                a, b, settings=MULTI_EPOCH_SETTINGS
            )
        resumed_cfg = self._with_resilience(
            base_config, backend, checkpoint_dir=str(tmp_path),
            checkpoint_interval=1, resume=True,
        )
        report, resumed = final_memory(monkeypatch, resumed_cfg, a, b)
        assert fingerprint(report) == fingerprint(golden)
        assert resumed == uninterrupted

    def test_mid_run_snapshot_holds_one_set_caches_and_resumes(
        self, tmp_path, workload, base_config, golden
    ):
        """The snapshot saves the STLBs and BBF stream buffers as
        one-set cache states, populated mid-run, and a resume from it
        under the array backend is byte-identical."""
        a, b, _ = workload
        cfg = self._with_resilience(
            base_config, "vectorized", checkpoint_dir=str(tmp_path)
        )
        monkey = ChaosMonkey(ChaosConfig(kill_after_epoch=1))
        with pytest.raises(InjectedCrash):
            SpadeSystem(cfg, chaos=monkey).spmm(
                a, b, settings=MULTI_EPOCH_SETTINGS
            )
        _, state = CheckpointManager(str(tmp_path)).load_latest()
        memory = state["memory"]
        assert all(len(t["sets"]) == 1 for t in memory["stlbs"])
        assert any(t["sets"][0] for t in memory["stlbs"])
        assert all(len(b["stream"]["sets"]) == 1 for b in memory["bbfs"])
        assert any(b["stream"]["sets"][0] for b in memory["bbfs"])
        resumed_cfg = self._with_resilience(
            base_config, "vectorized",
            checkpoint_dir=str(tmp_path), resume=True,
        )
        assert resumed_cfg.replay == "array"
        report = SpadeSystem(resumed_cfg).spmm(
            a, b, settings=MULTI_EPOCH_SETTINGS
        )
        assert fingerprint(report) == fingerprint(golden)

    def test_cross_backend_resume(
        self, tmp_path, workload, base_config, golden, monkeypatch
    ):
        """A checkpoint written by a vectorized run under array replay
        (every epoch, from the compiled replay's states) resumes under
        the scalar backend (what the degradation step relies on), with
        the uninterrupted array run's facts and final memory state,
        pickled byte for byte."""
        a, b, _ = workload
        assert base_config.replay == "array"
        _, uninterrupted = final_memory(
            monkeypatch, self._with_resilience(base_config, "vectorized"),
            a, b,
        )
        cfg = self._with_resilience(
            base_config, "vectorized", checkpoint_dir=str(tmp_path),
            checkpoint_interval=1,
        )
        monkey = ChaosMonkey(ChaosConfig(kill_after_epoch=1))
        with pytest.raises(InjectedCrash):
            SpadeSystem(cfg, chaos=monkey).spmm(
                a, b, settings=MULTI_EPOCH_SETTINGS
            )
        resumed_cfg = self._with_resilience(
            base_config, "scalar", checkpoint_dir=str(tmp_path), resume=True
        )
        report, resumed = final_memory(monkeypatch, resumed_cfg, a, b)
        assert fingerprint(report) == fingerprint(golden)
        assert resumed == uninterrupted

    def test_checkpointing_does_not_perturb_results(
        self, tmp_path, workload, base_config, golden
    ):
        a, b, _ = workload
        cfg = self._with_resilience(
            base_config, "scalar", checkpoint_dir=str(tmp_path)
        )
        report = SpadeSystem(cfg).spmm(a, b, settings=MULTI_EPOCH_SETTINGS)
        assert fingerprint(report) == fingerprint(golden)
        n_epochs = len(golden.result.epoch_timings)
        assert len(list(tmp_path.glob("ckpt-epoch-*.ckpt"))) == n_epochs

    def test_resume_of_completed_run_is_identical(
        self, tmp_path, workload, base_config, golden
    ):
        a, b, _ = workload
        cfg = self._with_resilience(
            base_config, "scalar", checkpoint_dir=str(tmp_path)
        )
        SpadeSystem(cfg).spmm(a, b, settings=MULTI_EPOCH_SETTINGS)
        resumed_cfg = self._with_resilience(
            base_config, "scalar", checkpoint_dir=str(tmp_path), resume=True
        )
        report = SpadeSystem(resumed_cfg).spmm(
            a, b, settings=MULTI_EPOCH_SETTINGS
        )
        assert report.result.output_dense is not None
        assert fingerprint(report) == fingerprint(golden)

    def test_resume_with_empty_dir_runs_fresh(
        self, tmp_path, workload, base_config, golden
    ):
        a, b, _ = workload
        cfg = self._with_resilience(
            base_config, "scalar", checkpoint_dir=str(tmp_path), resume=True
        )
        report = SpadeSystem(cfg).spmm(a, b, settings=MULTI_EPOCH_SETTINGS)
        assert fingerprint(report) == fingerprint(golden)

    def test_resume_rejects_different_workload(
        self, tmp_path, workload, base_config
    ):
        a, b, b_r = workload
        cfg = self._with_resilience(
            base_config, "scalar", checkpoint_dir=str(tmp_path)
        )
        SpadeSystem(cfg).spmm(a, b, settings=MULTI_EPOCH_SETTINGS)
        resumed_cfg = self._with_resilience(
            base_config, "scalar", checkpoint_dir=str(tmp_path), resume=True
        )
        with pytest.raises(CheckpointError, match="primitive"):
            SpadeSystem(resumed_cfg).sddmm(
                a, b_r, b, settings=MULTI_EPOCH_SETTINGS
            )

    def test_resume_from_a_snapshot_with_the_old_pe_state(
        self, tmp_path, workload, base_config, golden, monkeypatch
    ):
        """Version-2 snapshots written while each PE's state also held
        the set of rMatrix rows it touched still resume to the
        uninterrupted run's facts and final memory state, byte for
        byte."""
        a, b, _ = workload
        plain = self._with_resilience(base_config, "vectorized")
        cfg = self._with_resilience(
            base_config, "vectorized", checkpoint_dir=str(tmp_path)
        )
        monkey = ChaosMonkey(ChaosConfig(kill_after_epoch=1))
        with pytest.raises(InjectedCrash):
            SpadeSystem(cfg, chaos=monkey).spmm(
                a, b, settings=MULTI_EPOCH_SETTINGS
            )
        manager = CheckpointManager(str(tmp_path))
        epoch, path = manager.list_checkpoints()[-1]
        header, state = manager.read(path)
        assert [sorted(pe) for pe in state["pes"]] == [["vrf"]] * 4
        rows = sorted(set(a.r_ids.tolist()))
        for pe in state["pes"]:
            pe["rmatrix_rows_touched"] = rows
        CheckpointManager(
            str(tmp_path), fingerprint=header["fingerprint"]
        ).write(epoch, state, header["meta"])

        _, uninterrupted = final_memory(monkeypatch, plain, a, b)
        loaded = []
        load = ProcessingElement.load_state_dict
        monkeypatch.setattr(
            ProcessingElement, "load_state_dict",
            lambda pe, st: (loaded.append(sorted(st)), load(pe, st))[1],
        )
        report, resumed = final_memory(
            monkeypatch,
            dataclasses.replace(cfg, resilience=dataclasses.replace(
                cfg.resilience, resume=True
            )),
            a, b,
        )
        assert loaded == [["rmatrix_rows_touched", "vrf"]] * 4
        assert fingerprint(report) == fingerprint(golden)
        assert resumed == uninterrupted

    def test_sddmm_kill_then_resume(self, tmp_path, workload, base_config):
        a, b, b_r = workload
        golden = SpadeSystem(base_config).sddmm(
            a, b_r, b, settings=MULTI_EPOCH_SETTINGS
        )
        assert len(golden.result.epoch_timings) >= 2
        cfg = self._with_resilience(
            base_config, "vectorized", checkpoint_dir=str(tmp_path)
        )
        monkey = ChaosMonkey(ChaosConfig(kill_after_epoch=0))
        with pytest.raises(InjectedCrash):
            SpadeSystem(cfg, chaos=monkey).sddmm(
                a, b_r, b, settings=MULTI_EPOCH_SETTINGS
            )
        resumed_cfg = self._with_resilience(
            base_config, "vectorized",
            checkpoint_dir=str(tmp_path), resume=True,
        )
        report = SpadeSystem(resumed_cfg).sddmm(
            a, b_r, b, settings=MULTI_EPOCH_SETTINGS
        )
        assert report.result.output_vals is not None
        assert fingerprint(report) == fingerprint(golden)

    def test_checkpoints_written_counter(
        self, tmp_path, workload, base_config, golden
    ):
        from repro.obs import RunLedger, run_metrics

        a, b, _ = workload
        cfg = self._with_resilience(
            base_config, "scalar", checkpoint_dir=str(tmp_path / "ckpt")
        )
        ledger = RunLedger(tmp_path / "run.jsonl")
        report = SpadeSystem(cfg, ledger=ledger).spmm(
            a, b, settings=MULTI_EPOCH_SETTINGS
        )
        metrics = run_metrics(report, ledger.events())
        written = metrics.counter("spade_checkpoints_written")
        assert written.value == len(golden.result.epoch_timings)
