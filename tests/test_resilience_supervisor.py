"""RunSupervisor: retry policy, watchdog, the one-step degradation to
the scalar oracle, and the typed error taxonomy."""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.config import ResilienceConfig, scaled_config
from repro.core.accelerator import KernelSettings, SpadeSystem
from repro.errors import (
    ConfigError,
    EngineExecutionError,
    SpadeError,
    WatchdogTimeout,
    WorkloadError,
)
from repro.resilience import (
    ChaosConfig,
    ChaosMonkey,
    InjectedFault,
    RunSupervisor,
)
from repro.obs import RunLedger, run_metrics
from repro.sparse.generators import rmat_graph


@pytest.fixture(scope="module")
def workload():
    a = rmat_graph(scale=7, edge_factor=8, seed=3)
    b = np.random.default_rng(2).random((a.num_cols, 16), dtype=np.float32)
    return a, b


@pytest.fixture(scope="module")
def base_config():
    return scaled_config(4, cache_shrink=8)


@pytest.fixture(scope="module")
def scalar_oracle(workload, base_config):
    a, b = workload
    return SpadeSystem(base_config, execution="scalar").spmm(a, b)


def make_supervisor(sleeps=None, chaos=None, ledger=None, **res):
    recorded = [] if sleeps is None else sleeps
    return RunSupervisor(
        resilience=ResilienceConfig(**res),
        ledger=ledger,
        chaos=chaos,
        sleep=recorded.append,
    )


class TestRetryPolicy:
    def test_transient_error_is_retried_with_backoff(self):
        sleeps = []
        sup = make_supervisor(
            sleeps, max_retries=3, backoff_base_s=0.1, backoff_factor=2.0
        )
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise EngineExecutionError("boom", pe_id=1, chunk_index=2)
            return "ok"

        assert sup.call(flaky) == "ok"
        assert len(calls) == 3
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_retries_exhausted_reraises_last_error(self):
        sup = make_supervisor(max_retries=2, backoff_base_s=0.0)
        calls = []

        def always_fails():
            calls.append(1)
            raise EngineExecutionError("boom")

        with pytest.raises(EngineExecutionError):
            sup.call(always_fails)
        assert len(calls) == 3

    def test_permanent_errors_are_not_retried(self):
        for exc_type in (ConfigError, WorkloadError):
            sup = make_supervisor(max_retries=5, backoff_base_s=0.0)
            calls = []

            def fails():
                calls.append(1)
                raise exc_type("bad input")

            with pytest.raises(exc_type):
                sup.call(fails)
            assert len(calls) == 1

    def test_retry_counter_lands_in_telemetry(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        sup = make_supervisor(
            ledger=ledger, max_retries=1, backoff_base_s=0.0
        )
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise EngineExecutionError("boom")
            return "ok"

        sup.call(flaky)
        metrics = run_metrics(events=ledger.events())
        assert metrics.counter("spade_run_retries").value == 1


class TestWatchdog:
    def test_timeout_raises_watchdog(self):
        sup = RunSupervisor(
            resilience=ResilienceConfig(timeout_s=0.05), sleep=lambda s: None
        )
        with pytest.raises(WatchdogTimeout, match="wall-clock"):
            sup.call(lambda: time.sleep(10))

    def test_fast_call_passes_through(self):
        sup = RunSupervisor(resilience=ResilienceConfig(timeout_s=5.0))
        assert sup.call(lambda: 42) == 42

    def test_errors_propagate_through_watchdog(self):
        sup = RunSupervisor(resilience=ResilienceConfig(timeout_s=5.0))

        def fails():
            raise WorkloadError("bad shape")

        with pytest.raises(WorkloadError):
            sup.call(fails)


class TestDegradationLadder:
    def test_ladder_order(self, base_config):
        # The default config asks for the fast path; its one step down
        # is the scalar oracle for execution and replay together.
        assert make_supervisor()._ladder(
            base_config.execution, base_config.replay
        ) == (("vectorized", "array"), ("scalar", "scalar"))

    def test_vectorized_faults_degrade_to_scalar(
        self, workload, base_config, scalar_oracle, tmp_path
    ):
        a, b = workload
        ledger = RunLedger(tmp_path / "run.jsonl")
        monkey = ChaosMonkey(
            ChaosConfig(worker_fault_rate=1.0, fault_backends=("vectorized",))
        )
        sup = make_supervisor(
            chaos=monkey, ledger=ledger,
            max_retries=1, backoff_base_s=0.0,
        )
        cfg = dataclasses.replace(base_config, execution="vectorized")
        report = sup.run_kernel(cfg, "spmm", a, b)
        outcome = sup.last_outcome
        assert outcome.backend == "scalar"
        assert outcome.replay == "scalar"
        assert outcome.degraded
        assert outcome.degradations == 1
        # vectorized: initial + 1 retry failed -> one of those retries
        # is counted; then scalar succeeds first try.
        assert outcome.retries == 1
        np.testing.assert_array_equal(report.output, scalar_oracle.output)
        assert report.time_ns == scalar_oracle.time_ns
        m = run_metrics(report, ledger.events())
        assert m.counter("spade_backend_degradations").value == 1
        assert m.counter("spade_run_retries").value == 1

    def test_all_backends_faulty_degrades_to_scalar(
        self, workload, base_config
    ):
        # With the oracle faulty too, the run steps down once and then
        # raises: there is no rung below scalar.
        a, b = workload
        monkey = ChaosMonkey(
            ChaosConfig(
                worker_fault_rate=1.0,
                fault_backends=("vectorized", "scalar"),
            )
        )
        sup = make_supervisor(chaos=monkey, backoff_base_s=0.0)
        with pytest.raises(EngineExecutionError):
            sup.run_kernel(base_config, "spmm", a, b)
        assert sup.last_outcome.backend == "scalar"
        assert sup.last_outcome.degradations == 1
        assert sup.last_outcome.attempts == 2

    def test_degrade_disabled_raises_instead(self, workload, base_config):
        a, b = workload
        monkey = ChaosMonkey(
            ChaosConfig(worker_fault_rate=1.0, fault_backends=("vectorized",))
        )
        sup = make_supervisor(
            chaos=monkey, degrade=False, backoff_base_s=0.0
        )
        cfg = dataclasses.replace(base_config, execution="vectorized")
        with pytest.raises(EngineExecutionError):
            sup.run_kernel(cfg, "spmm", a, b)
        assert sup.last_outcome.backend == "vectorized"
        assert not sup.last_outcome.degradations

    def test_fault_budget_lets_retry_succeed_on_same_rung(
        self, workload, base_config, scalar_oracle
    ):
        a, b = workload
        monkey = ChaosMonkey(
            ChaosConfig(
                worker_faults=((0, 0),),
                max_worker_faults=1,
                fault_backends=("vectorized",),
            )
        )
        sup = make_supervisor(
            chaos=monkey, max_retries=2, backoff_base_s=0.0
        )
        cfg = dataclasses.replace(base_config, execution="vectorized")
        report = sup.run_kernel(cfg, "spmm", a, b)
        assert sup.last_outcome.backend == "vectorized"
        assert not sup.last_outcome.degraded
        assert sup.last_outcome.retries == 1
        np.testing.assert_array_equal(report.output, scalar_oracle.output)

    def test_scalar_request_has_one_rung(self, workload, base_config):
        a, b = workload
        monkey = ChaosMonkey(
            ChaosConfig(worker_fault_rate=1.0, fault_backends=("scalar",))
        )
        sup = make_supervisor(chaos=monkey, backoff_base_s=0.0)
        cfg = dataclasses.replace(base_config, execution="scalar")
        with pytest.raises(EngineExecutionError):
            sup.run_kernel(cfg, "spmm", a, b)
        assert sup.last_outcome.backend == "scalar"

    def test_unknown_kernel_is_config_error(self, workload, base_config):
        a, b = workload
        with pytest.raises(ConfigError, match="unknown kernel"):
            make_supervisor().run_kernel(base_config, "gemm", a, b)

    def test_retry_resumes_from_checkpoint(
        self, tmp_path, workload, base_config, scalar_oracle
    ):
        """A faulty first attempt leaves checkpoints behind; the retry
        picks them up (resume forced on) and still matches the oracle."""
        a, b = workload
        settings = KernelSettings(
            row_panel_size=32, col_panel_size=64, use_barriers=True
        )
        oracle = SpadeSystem(base_config).spmm(a, b, settings=settings)
        monkey = ChaosMonkey(
            ChaosConfig(
                worker_faults=((1, 1),),
                max_worker_faults=1,
                fault_backends=("vectorized",),
            )
        )
        sup = make_supervisor(
            chaos=monkey,
            max_retries=1,
            backoff_base_s=0.0,
            checkpoint_dir=str(tmp_path),
        )
        cfg = dataclasses.replace(base_config, execution="vectorized")
        report = sup.run_kernel(cfg, "spmm", a, b, settings=settings)
        assert sup.last_outcome.retries == 1
        np.testing.assert_array_equal(report.output, oracle.output)
        assert report.time_ns == oracle.time_ns


class TestErrorTaxonomy:
    def test_worker_fault_is_typed_with_location(
        self, workload, base_config
    ):
        a, b = workload
        monkey = ChaosMonkey(
            ChaosConfig(
                worker_faults=((0, 0),), fault_backends=("vectorized",)
            )
        )
        cfg = dataclasses.replace(base_config, execution="vectorized")
        with pytest.raises(EngineExecutionError) as excinfo:
            SpadeSystem(cfg, chaos=monkey).spmm(a, b)
        err = excinfo.value
        assert err.pe_id == 0
        assert err.chunk_index == 0
        assert "pe=0" in str(err) and "chunk=0" in str(err)
        assert isinstance(err.__cause__, InjectedFault)

    def test_serial_backend_faults_are_typed_too(
        self, workload, base_config
    ):
        a, b = workload
        monkey = ChaosMonkey(
            ChaosConfig(
                worker_faults=((0, 0),), fault_backends=("scalar",)
            )
        )
        cfg = dataclasses.replace(base_config, execution="scalar")
        with pytest.raises(EngineExecutionError) as excinfo:
            SpadeSystem(cfg, chaos=monkey).spmm(a, b)
        assert excinfo.value.pe_id == 0
        assert excinfo.value.chunk_index == 0
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_engine_execution_error_is_runtime_error(self):
        assert issubclass(EngineExecutionError, RuntimeError)
        assert issubclass(EngineExecutionError, SpadeError)

    def test_shape_validation_is_workload_error(
        self, workload, base_config
    ):
        a, _ = workload
        bad_b = np.ones((a.num_cols + 1, 8), dtype=np.float32)
        system = SpadeSystem(base_config)
        with pytest.raises(WorkloadError, match="B must be"):
            system.spmm(a, bad_b)
        # Back-compat: still catchable as ValueError.
        with pytest.raises(ValueError):
            system.spmm(a, bad_b)

    def test_sddmm_shape_validation(self, workload, base_config):
        a, b = workload
        system = SpadeSystem(base_config)
        b_r = np.ones((a.num_rows, 16), dtype=np.float32)
        with pytest.raises(WorkloadError, match="C must be"):
            system.sddmm(a, b_r, np.ones((3, 16), dtype=np.float32))
        with pytest.raises(WorkloadError, match="share the dense row"):
            system.sddmm(
                a, b_r, np.ones((a.num_cols, 8), dtype=np.float32)
            )

    def test_config_error_is_value_error(self):
        with pytest.raises(ConfigError):
            ResilienceConfig(checkpoint_interval=0)
        with pytest.raises(ValueError):
            ResilienceConfig(resume=True)  # resume without a directory


class TestCombinedReplayLadder:
    """A rung pairs an execution and a replay mode; the one step down
    goes to the scalar oracle for both."""

    def test_rungs_from_the_top(self):
        sup = make_supervisor()
        assert sup._ladder("vectorized", "array") == (
            ("vectorized", "array"),
            ("scalar", "scalar"),
        )

    def test_rungs_from_the_middle(self):
        sup = make_supervisor()
        assert sup._ladder("vectorized", "scalar") == (
            ("vectorized", "scalar"),
            ("scalar", "scalar"),
        )

    @pytest.mark.parametrize("replay", ["scalar", "array"])
    def test_scalar_execution_has_one_rung(self, replay):
        # Replay has no effect under the scalar oracle, so there is
        # nothing to step down to.
        assert make_supervisor()._ladder("scalar", replay) == (
            ("scalar", replay),
        )

    def test_degrade_disabled_keeps_one_rung(self):
        sup = make_supervisor(degrade=False)
        assert sup._ladder("vectorized", "array") == (
            ("vectorized", "array"),
        )

    def test_outcome_degraded_when_only_replay_stepped(self):
        from repro.resilience import RunOutcome

        outcome = RunOutcome(
            backend="scalar", requested_backend="scalar",
            attempts=2, retries=0, degradations=1,
            replay="scalar", requested_replay="array",
        )
        assert outcome.degraded

    def test_faulty_rung_steps_replay_mode_too(
        self, workload, base_config, scalar_oracle
    ):
        a, b = workload
        monkey = ChaosMonkey(
            ChaosConfig(worker_fault_rate=1.0, fault_backends=("vectorized",))
        )
        sup = make_supervisor(chaos=monkey, backoff_base_s=0.0)
        cfg = dataclasses.replace(
            base_config, execution="vectorized", replay="array"
        )
        report = sup.run_kernel(cfg, "spmm", a, b)
        outcome = sup.last_outcome
        assert outcome.backend == "scalar"
        assert outcome.replay == "scalar"
        assert outcome.requested_replay == "array"
        assert outcome.degraded
        # Degrading never changes results.
        np.testing.assert_array_equal(report.output, scalar_oracle.output)
        assert report.time_ns == scalar_oracle.time_ns

    def test_successful_run_records_requested_replay(
        self, workload, base_config, scalar_oracle
    ):
        a, b = workload
        sup = make_supervisor()
        cfg = dataclasses.replace(base_config, replay="array")
        report = sup.run_kernel(cfg, "spmm", a, b)
        outcome = sup.last_outcome
        assert outcome.replay == "array"
        assert outcome.requested_replay == "array"
        assert not outcome.degraded
        np.testing.assert_array_equal(report.output, scalar_oracle.output)
