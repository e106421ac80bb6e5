"""ChaosMonkey: deterministic, thread-order-independent fault injection."""

from __future__ import annotations

import pytest

from repro.resilience import (
    ChaosConfig,
    ChaosMonkey,
    InjectedCrash,
    InjectedFault,
)


def fired(monkey: ChaosMonkey, pe: int, chunk: int, backend="vectorized"):
    try:
        monkey.worker_fault(pe, chunk, backend=backend)
        return False
    except InjectedFault:
        return True


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        cfg = ChaosConfig(seed=7, worker_fault_rate=0.3)
        grid = [(pe, ch) for pe in range(4) for ch in range(16)]
        a = [fired(ChaosMonkey(cfg), pe, ch) for pe, ch in grid]
        b = [fired(ChaosMonkey(cfg), pe, ch) for pe, ch in grid]
        assert a == b
        assert any(a) and not all(a)  # rate is neither 0 nor 1

    def test_call_order_does_not_matter(self):
        """Decisions hash (seed, pe, chunk), so thread interleaving
        cannot change which chunks fault."""
        cfg = ChaosConfig(seed=3, worker_fault_rate=0.4)
        grid = [(pe, ch) for pe in range(3) for ch in range(10)]
        forward = ChaosMonkey(cfg)
        reverse = ChaosMonkey(cfg)
        got_fwd = {g: fired(forward, *g) for g in grid}
        got_rev = {g: fired(reverse, *g) for g in reversed(grid)}
        assert got_fwd == got_rev

    def test_different_seeds_differ(self):
        grid = [(pe, ch) for pe in range(4) for ch in range(32)]
        a = ChaosMonkey(ChaosConfig(seed=1, worker_fault_rate=0.5))
        b = ChaosMonkey(ChaosConfig(seed=2, worker_fault_rate=0.5))
        assert [fired(a, *g) for g in grid] != [fired(b, *g) for g in grid]


class TestWorkerFaults:
    def test_explicit_faults_always_fire(self):
        monkey = ChaosMonkey(ChaosConfig(worker_faults=((2, 5),)))
        assert not fired(monkey, 2, 4)
        assert fired(monkey, 2, 5)

    def test_budget_caps_total_faults(self):
        monkey = ChaosMonkey(
            ChaosConfig(worker_fault_rate=1.0, max_worker_faults=2)
        )
        results = [fired(monkey, 0, ch) for ch in range(5)]
        assert results == [True, True, False, False, False]
        assert monkey.worker_faults_injected == 2

    def test_backend_scoping(self):
        # By default only the fast path faults, so a supervised run
        # still degrades to the oracle and completes.
        monkey = ChaosMonkey(ChaosConfig(worker_fault_rate=1.0))
        assert not fired(monkey, 0, 0, backend="scalar")
        assert fired(monkey, 0, 0, backend="vectorized")
        oracle_only = ChaosMonkey(
            ChaosConfig(worker_fault_rate=1.0, fault_backends=("scalar",))
        )
        assert fired(oracle_only, 0, 0, backend="scalar")
        assert not fired(oracle_only, 0, 0, backend="vectorized")

    def test_zero_rate_never_fires(self):
        monkey = ChaosMonkey(ChaosConfig(worker_fault_rate=0.0))
        assert not any(fired(monkey, pe, ch)
                       for pe in range(4) for ch in range(20))


class TestReplayDelays:
    def test_cadence(self):
        sleeps = []
        monkey = ChaosMonkey(
            ChaosConfig(replay_delay_s=0.01, replay_delay_every=3),
            sleep=sleeps.append,
        )
        for _ in range(9):
            monkey.replay_delay()
        assert sleeps == [0.01] * 3
        assert monkey.replay_delays_injected == 3

    def test_disabled_by_default(self):
        sleeps = []
        monkey = ChaosMonkey(ChaosConfig(), sleep=sleeps.append)
        for _ in range(10):
            monkey.replay_delay()
        assert sleeps == []


class TestCheckpointTruncation:
    def test_truncates_configured_epochs(self, tmp_path):
        path = tmp_path / "ckpt-epoch-000001.ckpt"
        path.write_bytes(b"x" * 1000)
        monkey = ChaosMonkey(ChaosConfig(truncate_checkpoints=(1,)))
        monkey.on_checkpoint_written(str(path), 0)
        assert path.stat().st_size == 1000  # epoch 0 untouched
        monkey.on_checkpoint_written(str(path), 1)
        assert path.stat().st_size == 500
        assert monkey.checkpoints_truncated == 1

    def test_engine_recovers_from_truncated_newest(self, tmp_path):
        """End to end: chaos truncates the newest snapshot; resume falls
        back to the previous one and still reproduces the golden run."""
        import dataclasses
        import numpy as np

        from repro.config import ResilienceConfig, scaled_config
        from repro.core.accelerator import KernelSettings, SpadeSystem

        a_cfg = scaled_config(4, cache_shrink=8)
        from repro.sparse.generators import rmat_graph

        a = rmat_graph(scale=8, seed=5)
        b = np.random.default_rng(0).random(
            (a.num_cols, 16), dtype=np.float32
        )
        settings = KernelSettings(
            row_panel_size=32, col_panel_size=64, use_barriers=True
        )
        golden = SpadeSystem(a_cfg).spmm(a, b, settings=settings)
        n_epochs = len(golden.result.epoch_timings)
        assert n_epochs >= 3
        kill_at = n_epochs - 2
        monkey = ChaosMonkey(
            ChaosConfig(
                kill_after_epoch=kill_at,
                truncate_checkpoints=(kill_at,),
            )
        )
        cfg = dataclasses.replace(
            a_cfg,
            resilience=ResilienceConfig(checkpoint_dir=str(tmp_path)),
        )
        with pytest.raises(InjectedCrash):
            SpadeSystem(cfg, chaos=monkey).spmm(a, b, settings=settings)
        resumed = dataclasses.replace(
            a_cfg,
            resilience=ResilienceConfig(
                checkpoint_dir=str(tmp_path), resume=True
            ),
        )
        report = SpadeSystem(resumed).spmm(a, b, settings=settings)
        np.testing.assert_array_equal(report.output, golden.output)
        assert report.time_ns == golden.time_ns


class TestKillSwitch:
    def test_fires_once_at_the_right_epoch(self):
        monkey = ChaosMonkey(ChaosConfig(kill_after_epoch=2))
        monkey.after_epoch(0)
        monkey.after_epoch(1)
        with pytest.raises(InjectedCrash):
            monkey.after_epoch(2)
        monkey.after_epoch(2)  # one-shot: second pass is a no-op
        assert monkey.crashes_injected == 1

    def test_disabled_by_default(self):
        monkey = ChaosMonkey(ChaosConfig())
        for epoch in range(10):
            monkey.after_epoch(epoch)
        assert monkey.crashes_injected == 0


class TestConfigValidation:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ChaosConfig(worker_fault_rate=1.5)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            ChaosConfig(replay_delay_s=-1.0)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            ChaosConfig(max_worker_faults=-1)
