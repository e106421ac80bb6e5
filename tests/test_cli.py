"""Unit tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--matrix", "KRO"])
        args_d = vars(args)
        assert args_d["kernel"] == "spmm"
        assert args_d["k"] == 32
        assert args_d["pes"] == 8

    def test_experiment_names_listed(self):
        assert "fig09" in EXPERIMENTS
        assert "sec7g" in EXPERIMENTS
        assert len(EXPERIMENTS) == 11


class TestCommands:
    def test_suite(self, capsys):
        assert main(["suite", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "KRO" in out and "mycielskian17" in out

    def test_config(self, capsys):
        assert main(["config", "--pes", "16"]) == 0
        out = capsys.readouterr().out
        assert "16" in out

    def test_run_spmm(self, capsys):
        code = main([
            "run", "--matrix", "ASI", "--scale", "tiny",
            "--pes", "2", "--k", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated time" in out
        assert "DRAM accesses" in out

    def test_run_sddmm(self, capsys):
        code = main([
            "run", "--matrix", "PAC", "--scale", "tiny",
            "--pes", "2", "--kernel", "sddmm", "--k", "16",
        ])
        assert code == 0
        assert "sddmm" in capsys.readouterr().out

    def test_run_mtx_file(self, tmp_path, tiny_matrix, capsys):
        from repro.sparse.io import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(tiny_matrix, path)
        code = main([
            "run", "--matrix", str(path), "--pes", "2", "--k", "16",
        ])
        assert code == 0
        assert "4x4" in capsys.readouterr().out

    def test_autotune(self, capsys):
        code = main([
            "autotune", "--matrix", "KRO", "--scale", "tiny",
            "--pes", "2", "--k", "16",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best" in out
        assert "SPADE Opt gain over Base" in out

    def test_experiment_sec7g(self, capsys):
        assert main(["experiment", "sec7g"]) == 0
        assert "24.64" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestTelemetryFlags:
    RUN = ["run", "--matrix", "ASI", "--scale", "tiny",
           "--pes", "2", "--k", "16"]

    def test_trace_written_and_perfetto_loadable(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run.trace.json"
        assert main(self.RUN + ["--trace", str(trace)]) == 0
        assert "Perfetto" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        # The run manifest rides along in otherData.
        from repro.obs import validate_manifest

        validate_manifest(doc["otherData"]["manifest"])
        names = {e["name"] for e in doc["traceEvents"]}
        assert "spmm" in names and "build_schedule" in names

    def test_metrics_out_matches_report(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        assert main(self.RUN + ["--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "metrics written" in out
        doc = json.loads(metrics.read_text())
        assert doc["schema_version"] == 1
        names = {m["name"] for m in doc["metrics"]}
        assert "spade_level_hits_total" in names
        assert "spade_dram_lines_total" in names
        # DRAM accesses printed by the run equal the exported counters.
        dram_printed = int(
            [ln for ln in out.splitlines()
             if ln.startswith("DRAM accesses")][0].split(":")[1]
        )
        dram_metrics = sum(
            m["value"] for m in doc["metrics"]
            if m["name"] == "spade_dram_lines_total"
        )
        assert dram_metrics == dram_printed

    def test_metrics_out_prometheus(self, tmp_path):
        metrics = tmp_path / "metrics.prom"
        assert main(self.RUN + ["--metrics-out", str(metrics)]) == 0
        text = metrics.read_text()
        assert "# TYPE spade_level_hits_total counter" in text

    def test_manifest_out(self, tmp_path):
        import json

        from repro.obs import validate_manifest

        manifest = tmp_path / "manifest.json"
        assert main(self.RUN + ["--manifest-out", str(manifest)]) == 0
        doc = validate_manifest(json.loads(manifest.read_text()))
        assert doc["workload"]["matrix"] == "ASI"
        assert doc["workload"]["kernel"] == "spmm"
        assert doc["config"]["num_pes"] == 2

    def test_profile_table(self, capsys):
        assert main(self.RUN + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "hottest phases" in out
        assert "spmm" in out and "total ms" in out

    def test_trace_has_per_pe_gen_spans_and_barriers(self, tmp_path):
        import json

        trace = tmp_path / "run.trace.json"
        assert main(self.RUN + ["--trace", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        spans = {(e["cat"], e["name"]) for e in events if e["ph"] == "X"}
        assert {
            ("kernel", "spmm"), ("schedule", "build_schedule"),
            ("epoch", "epoch[0]"), ("flush", "wb_invalidate"),
        } <= spans
        gen = [e for e in events if e.get("cat") == "gen"]
        # One generation span per PE, each on its PE's track.
        assert sorted(e["tid"] for e in gen) == [1, 2]
        barriers = [e for e in events if e["ph"] == "i"]
        epochs = [e for e in events if e.get("cat") == "epoch"
                  and e["ph"] == "X"]
        assert len(barriers) == len(epochs) >= 1
        assert all("epoch_time_ns" in b["args"] for b in barriers)

    def test_exports_without_ledger_leave_no_recording(
        self, tmp_path, monkeypatch
    ):
        # The exports record into a temporary ledger that is removed.
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        trace = tmp_path / "run.trace.json"
        assert main(self.RUN + ["--trace", str(trace), "--profile"]) == 0
        assert trace.exists()
        assert not list(tmp_path.glob("repro-ledger-*"))

    def test_suite_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "suite.trace.json"
        code = main([
            "suite", "--scale", "tiny", "--trace", str(trace),
        ])
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        suite_spans = [
            e for e in doc["traceEvents"] if e.get("cat") == "suite"
        ]
        assert len(suite_spans) > 0

    def test_default_run_has_no_telemetry_files(self, tmp_path, capsys):
        # No flags -> no telemetry output and no mention of traces.
        assert main(self.RUN) == 0
        out = capsys.readouterr().out
        assert "trace written" not in out
        assert "metrics written" not in out
        assert list(tmp_path.iterdir()) == []


class TestErrorPaths:
    RUN = ["run", "--matrix", "ASI", "--scale", "tiny",
           "--pes", "2", "--k", "16"]

    def test_metrics_out_bad_extension(self, tmp_path, capsys):
        code = main(self.RUN + [
            "--metrics-out", str(tmp_path / "metrics.yaml"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert ".yaml" in err and ".json" in err

    def test_failed_run_still_writes_its_ledger(self, tmp_path, capsys):
        from repro.obs import iter_ledger_files, read_events

        ckpt = str(tmp_path / "ckpt")
        assert main(self.RUN + ["--checkpoint-dir", ckpt]) == 0
        # Resuming another matrix's snapshot is a permanent error.
        ledger_dir = tmp_path / "ledger"
        code = main([
            "run", "--matrix", "KRO", "--scale", "tiny", "--pes", "2",
            "--k", "16", "--checkpoint-dir", ckpt, "--resume",
            "--ledger", str(ledger_dir),
        ])
        assert code == 2
        assert "does not match this run" in capsys.readouterr().err
        (path,) = iter_ledger_files([ledger_dir])
        assert read_events(path)[0]["e"] == "run_start"

    def test_permanent_error_ends_the_run_as_failed(self, tmp_path, capsys):
        """A permanent error (here a snapshot of another matrix) still
        closes the run in the ledger: one ``run_start``, one failed
        ``run_end`` carrying the error, and the report counts it."""
        import json

        from repro.obs import iter_ledger_files, read_events

        ckpt = str(tmp_path / "ckpt")
        assert main(self.RUN + ["--checkpoint-dir", ckpt]) == 0
        ledger_dir = tmp_path / "ledger"
        assert main([
            "run", "--matrix", "KRO", "--scale", "tiny", "--pes", "2",
            "--k", "16", "--checkpoint-dir", ckpt, "--resume",
            "--ledger", str(ledger_dir),
        ]) == 2
        (path,) = iter_ledger_files([ledger_dir])
        events = read_events(path)
        kinds = [ev["e"] for ev in events]
        assert kinds.count("run_start") == 1
        ends = [ev for ev in events if ev["e"] == "run_end"]
        assert len(ends) == 1
        assert ends[0]["status"] == "failed"
        assert "does not match this run" in ends[0]["error"]
        capsys.readouterr()
        assert main(["obs", "validate", str(ledger_dir)]) == 0
        assert main(["obs", "report", "--json", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        runs = json.loads(out[out.index("{"):])["runs"]
        assert runs["failed"] == 1 and runs["ok"] == 0

    def test_unknown_suite_benchmark(self, capsys):
        code = main([
            "run", "--matrix", "NOPE", "--scale", "tiny", "--pes", "2",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "unknown benchmark" in err and "NOPE" in err

    def test_resume_without_checkpoint_dir(self, capsys):
        assert main(self.RUN + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert "--resume requires --checkpoint-dir" in err

    def test_bad_shape_mtx_is_not_a_traceback(self, tmp_path, capsys):
        # A SpadeError from deeper in the stack surfaces as exit 2 +
        # stderr, not an uncaught traceback.
        from repro.errors import SpadeError

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])  # missing --matrix
        assert issubclass(SpadeError, Exception)


class TestSweepFlags:
    RUN = ["run", "--matrix", "ASI", "--scale", "tiny",
           "--pes", "2", "--k", "16"]

    def test_parser_defaults(self):
        for cmd in (self.RUN, ["suite"], ["experiment", "sec7g"]):
            args = build_parser().parse_args(cmd)
            assert args.jobs == 1
            assert args.cache_dir is None
            assert args.no_cache is False

    def test_run_jobs_output_identical_to_serial(self, capsys):
        assert main(self.RUN) == 0
        serial = capsys.readouterr().out
        assert main(self.RUN + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_run_cache_dir_warm_rerun_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(self.RUN + ["--cache-dir", cache]) == 0
        cold = capsys.readouterr().out
        assert main(self.RUN + ["--cache-dir", cache]) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        # The cache really holds the result on disk.
        from repro.sweep import ResultCache

        assert len(ResultCache(cache)) == 1

    def test_run_no_cache_accepted_alone(self, capsys):
        assert main(self.RUN + ["--no-cache", "--jobs", "2"]) == 0
        assert "simulated time" in capsys.readouterr().out

    def test_suite_jobs_output_identical_to_serial(self, capsys):
        assert main(["suite", "--scale", "tiny"]) == 0
        serial = capsys.readouterr().out
        assert main(["suite", "--scale", "tiny", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_experiment_jobs_and_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.setenv("REPRO_PES", "2")
        cache = str(tmp_path / "cache")
        argv = ["experiment", "fig14", "--jobs", "2",
                "--cache-dir", cache]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "0 cached" in first.err
        assert "0 executed" in second.err

    def test_telemetry_flags_force_live_run(self, tmp_path, capsys):
        """A cache hit would skip the simulation the trace observes, so
        export flags bypass the sweep path."""
        import json

        cache = str(tmp_path / "cache")
        trace = tmp_path / "run.trace.json"
        assert main(self.RUN + [
            "--cache-dir", cache, "--trace", str(trace),
        ]) == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        from repro.sweep import ResultCache

        assert len(ResultCache(cache)) == 0


class TestSweepFlagErrors:
    RUN = ["run", "--matrix", "ASI", "--scale", "tiny",
           "--pes", "2", "--k", "16"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--matrix", "ASI", "--scale", "tiny", "--pes", "2"],
            ["suite", "--scale", "tiny"],
            ["experiment", "sec7g"],
        ],
        ids=["run", "suite", "experiment"],
    )
    def test_no_cache_conflicts_with_cache_dir(self, argv, tmp_path, capsys):
        code = main(argv + [
            "--no-cache", "--cache-dir", str(tmp_path / "c"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--no-cache conflicts with --cache-dir" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_rejected(self, jobs, capsys):
        assert main(self.RUN + ["--jobs", jobs]) == 2
        assert "--jobs must be a positive" in capsys.readouterr().err

    def test_resume_validation_still_wins(self, tmp_path, capsys):
        """Sweep checks compose with the existing run validations."""
        code = main(self.RUN + ["--resume", "--jobs", "2"])
        assert code == 2
        assert "--resume requires" in capsys.readouterr().err


class TestSweepCommand:
    """``repro experiment``'s sweep flags: parallel, cached and
    crash-safe runs print what the serial run prints."""

    def _tiny(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.setenv("REPRO_PES", "2")

    def test_output_identical_to_experiment(
        self, tmp_path, capsys, monkeypatch
    ):
        self._tiny(monkeypatch)
        assert main(["experiment", "fig14"]) == 0
        serial = capsys.readouterr()
        cache = str(tmp_path / "cache")
        argv = ["experiment", "fig14", "--jobs", "2", "--cache-dir", cache,
                "--keep-going", "--max-attempts", "2"]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert first.out == serial.out
        assert "0 cached" in first.err
        # Warm re-run: same bytes, everything cached.
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == serial.out
        assert "0 executed" in second.err
        # Nothing but the result key space lives in the cache.
        import os

        assert not os.path.exists(os.path.join(cache, ".leases"))

    def test_bad_max_attempts_rejected(self, tmp_path, capsys):
        assert main([
            "experiment", "fig14", "--max-attempts", "0",
            "--cache-dir", str(tmp_path / "c"),
        ]) == 2
        assert "--max-attempts" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["experiment", "fig14"])
        assert args.max_attempts is None  # REPRO_MAX_ATTEMPTS, else 3
        assert args.keep_going is False
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fig14"])

    def test_keep_going_suppresses_a_table_with_holes(
        self, capsys, monkeypatch
    ):
        self._tiny(monkeypatch)
        import repro.bench.fig14 as fig14

        def broken(*args, **kwargs):
            raise RuntimeError("broken cell")

        monkeypatch.setattr(fig14, "_cell", broken)
        assert main(["experiment", "fig14", "--keep-going"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("fig14: output suppressed — ")
        assert "failed or quarantined (see the run ledger)" in out
        assert "failed" in err


class TestResilienceFlags:
    RUN = ["run", "--matrix", "ASI", "--scale", "tiny",
           "--pes", "2", "--k", "16"]

    def test_checkpoint_dir_writes_snapshots(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        assert main(self.RUN + ["--checkpoint-dir", str(ckpt_dir)]) == 0
        assert list(ckpt_dir.glob("ckpt-epoch-*.ckpt"))

    def test_checkpoint_then_resume_round_trip(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        assert main(self.RUN + ["--checkpoint-dir", str(ckpt_dir)]) == 0
        first = capsys.readouterr().out
        assert main(self.RUN + [
            "--checkpoint-dir", str(ckpt_dir), "--resume",
        ]) == 0
        second = capsys.readouterr().out

        def sim_time(out):
            return [ln for ln in out.splitlines()
                    if ln.startswith("simulated time")][0]

        assert sim_time(first) == sim_time(second)

    def test_timeout_and_retries_accepted(self, capsys):
        assert main(self.RUN + [
            "--timeout", "300", "--max-retries", "2",
        ]) == 0
        assert "simulated time" in capsys.readouterr().out


class TestReplayFlag:
    """``--replay`` selects the trace-replay backend end to end."""

    RUN = ["run", "--matrix", "ASI", "--scale", "tiny",
           "--pes", "2", "--k", "16"]

    def test_parser_accepts_registry_modes(self):
        from repro.config import REPLAY_MODES

        assert build_parser().parse_args(self.RUN).replay is None
        for mode in REPLAY_MODES:
            args = build_parser().parse_args(
                self.RUN + ["--replay", mode]
            )
            assert args.replay == mode
        with pytest.raises(SystemExit):
            build_parser().parse_args(self.RUN + ["--replay", "batched"])

    def test_unknown_mode_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(self.RUN + ["--replay", "bogus"])
        assert "--replay" in capsys.readouterr().err

    def test_run_output_identical_across_modes(self, capsys):
        """All backends are bit-identical, so the printed report must
        not change when the replay mode does."""
        assert main(self.RUN + ["--replay", "scalar"]) == 0
        want = capsys.readouterr().out
        assert main(self.RUN + ["--replay", "array"]) == 0
        assert capsys.readouterr().out == want

    def test_sweep_and_cached_rerun_round_trip(self, tmp_path, capsys):
        """The replay mode survives the sweep cell path: live run,
        cold cached run, and warm cache hit all print the same report."""
        assert main(self.RUN + ["--replay", "array"]) == 0
        live = capsys.readouterr().out
        cache = str(tmp_path / "cache")
        argv = self.RUN + ["--replay", "array", "--cache-dir", cache]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert cold == live
        assert warm == live
        from repro.sweep import ResultCache

        assert len(ResultCache(cache)) == 1

    def test_replay_mode_is_part_of_the_cache_key(self, tmp_path, capsys):
        """Different --replay values must not collide in the result
        cache even though their results are identical."""
        cache = str(tmp_path / "cache")
        for mode in ("scalar", "array"):
            assert main(
                self.RUN + ["--replay", mode, "--cache-dir", cache]
            ) == 0
        capsys.readouterr()
        from repro.sweep import ResultCache

        assert len(ResultCache(cache)) == 2

    def test_autotune_accepts_replay(self, capsys):
        code = main([
            "autotune", "--matrix", "ASI", "--scale", "tiny",
            "--pes", "2", "--k", "16", "--replay", "array",
        ])
        assert code == 0
        assert "best" in capsys.readouterr().out
