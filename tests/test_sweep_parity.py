"""Differential tests: parallel sweeps are bit-identical to serial.

The sweep orchestrator's whole contract is that ``--jobs N`` is an
implementation detail: for representative drivers (fig09, table5) the
output list, its canonical JSON serialisation, the telemetry counter
totals, and the stamped BENCH manifests (modulo host/timestamp fields)
must all match a serial run exactly.
"""

import dataclasses
import json

import pytest

from repro.bench import fig09, table5

# Full-grid differential runs take tens of seconds; the quick coverage
# lane (-m "not slow") skips them, tier-1 still runs everything.
pytestmark = pytest.mark.slow
from repro.bench.harness import BenchEnvironment, write_bench_json
from repro.sweep import SweepRunner, open_cache
from repro.obs import diff_manifests, sweep_metrics

TINY_ENV = BenchEnvironment(
    scale="tiny", num_pes=2, opt_mode="quick",
    cache_shrink=8.0, row_panel_divisor=8,
)
MATRICES = ["KRO", "DEL", "MYC"]

# Manifest fields expected to differ between two runs on principle
# (wall-clock and host identity); everything else must be identical.
VOLATILE_MANIFEST_PREFIXES = ("manifest.created_utc", "manifest.host")


def canonical_json(rows) -> str:
    """The byte-level serialisation the BENCH files are derived from."""
    return json.dumps(
        [dataclasses.asdict(r) for r in rows],
        sort_keys=True,
        default=repr,
        separators=(",", ":"),
    )


def run_driver(module, sweep=None):
    return module.run(TINY_ENV, matrices=MATRICES, sweep=sweep)


@pytest.mark.parametrize("module", [fig09, table5], ids=["fig09", "table5"])
class TestSerialParallelParity:
    def test_output_and_json_bit_identical(self, module):
        serial = run_driver(module)
        parallel = run_driver(module, sweep=SweepRunner(jobs=4))
        assert serial == parallel
        assert canonical_json(serial) == canonical_json(parallel)

    def test_telemetry_counters_match(self, module):
        counts = {}
        for jobs in (1, 4):
            sweep = SweepRunner(jobs=jobs)
            run_driver(module, sweep=sweep)
            metrics = sweep_metrics(sweep.report)
            counts[jobs] = {
                name: metrics.value(name)
                for name in (
                    "spade_sweep_jobs_completed",
                    "spade_sweep_jobs_cached",
                    "spade_sweep_jobs_failed",
                    "spade_sweep_queue_depth",
                )
            }
            assert sweep.report.total == sweep.report.completed > 0
        assert counts[1] == counts[4]
        assert counts[1]["spade_sweep_jobs_failed"] == 0
        assert counts[1]["spade_sweep_queue_depth"] == 0

    def test_manifests_match_modulo_volatile_fields(self, module, tmp_path):
        stamped = {}
        for jobs in (1, 4):
            rows = run_driver(module, sweep=SweepRunner(jobs=jobs))
            stamped[jobs] = write_bench_json(
                tmp_path / f"BENCH_{module.__name__}_{jobs}.json",
                {"rows": json.loads(canonical_json(rows))},
                config=dataclasses.asdict(TINY_ENV),
                workload={"matrices": MATRICES},
            )
        diff = diff_manifests(stamped[1]["manifest"], stamped[4]["manifest"])
        unexpected = {
            key: val for key, val in diff.items()
            if not f"manifest.{key}".startswith(VOLATILE_MANIFEST_PREFIXES)
        }
        assert unexpected == {}
        # In particular the config fingerprint is byte-identical.
        assert (
            stamped[1]["manifest"]["config"]["fingerprint"]
            == stamped[4]["manifest"]["config"]["fingerprint"]
        )
        assert stamped[1]["rows"] == stamped[4]["rows"]


class TestCacheParity:
    def test_warm_cache_serves_serial_bytes(self, tmp_path):
        """For fig09 and table5, a jobs=4 run populates the cache; a
        second run executes zero simulator calls (100% cache hits) and
        still serialises to the same bytes as serial."""
        for module in (fig09, table5):
            name = module.__name__
            serial = run_driver(module)
            cold = SweepRunner(jobs=4, cache=open_cache(tmp_path / name))
            assert canonical_json(run_driver(module, sweep=cold)) == \
                canonical_json(serial), name
            assert cold.report.completed == cold.report.total > 0, name

            warm = SweepRunner(jobs=4, cache=open_cache(tmp_path / name))
            rows = run_driver(module, sweep=warm)
            assert canonical_json(rows) == canonical_json(serial), name
            assert warm.report.cached == warm.report.total, name
            assert warm.report.completed == 0, name

    def test_cache_is_orchestration_invariant(self, tmp_path):
        """Worker count and watchdog knobs are excluded from job keys:
        a cache written at jobs=4 serves a jobs=1 run with different
        supervision settings."""
        writer = SweepRunner(jobs=4, cache=open_cache(tmp_path / "c"))
        run_driver(table5, sweep=writer)

        env2 = dataclasses.replace(
            TINY_ENV, jobs=3, timeout_s=120.0, max_retries=2
        )
        reader = SweepRunner(jobs=1, cache=open_cache(tmp_path / "c"))
        rows = table5.run(env2, matrices=MATRICES, sweep=reader)
        assert reader.report.cached == reader.report.total
        assert rows == run_driver(table5)

    def test_changed_environment_misses_cache(self, tmp_path):
        """Result-affecting environment fields DO key the cache."""
        writer = SweepRunner(jobs=1, cache=open_cache(tmp_path / "c"))
        run_driver(table5, sweep=writer)

        env2 = dataclasses.replace(TINY_ENV, cache_shrink=4.0)
        reader = SweepRunner(jobs=1, cache=open_cache(tmp_path / "c"))
        table5.run(env2, matrices=MATRICES, sweep=reader)
        assert reader.report.cached == 0
        assert reader.report.completed == reader.report.total
