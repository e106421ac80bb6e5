"""Command-line interface.

Usage::

    python -m repro run --matrix KRO --kernel spmm --k 32 --pes 8
    python -m repro autotune --matrix ORK --kernel spmm --k 32
    python -m repro suite                       # list the Table 2 suite
    python -m repro experiment fig09 table5 ... # run paper experiments
    python -m repro experiment fig14 --jobs 4 --cache-dir CACHE --keep-going
                                                # parallel, cached, crash-safe
    python -m repro config --pes 224            # show a system config

Matrices are either Table 2 suite short names (with ``--scale``) or
paths to MatrixMarket ``.mtx`` files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

import dataclasses

from repro.bench.harness import get_environment
from repro.config import (
    EXECUTION_MODES,
    REPLAY_MODES,
    ObsConfig,
    ResilienceConfig,
    config_summary,
    scaled_config,
)
from repro.core.accelerator import SpadeSystem
from repro.errors import SpadeError
from repro.sparse.analysis import estimate_ru, reuse_stats
from repro.sparse.suite import SUITE, get_benchmark, load_matrix
from repro.tuning.autotune import autotune

METRICS_SUFFIXES = (".json", ".csv", ".prom", ".txt")

EXPERIMENTS = (
    "fig02", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
    "table5", "table6", "sec7d", "sec7g",
)


def _write_exports(
    args: argparse.Namespace, config, report, ledger, workload
) -> None:
    """Write the trace / metrics / manifest files and the profile
    requested by flags: every one an export of the run ledger's events
    (plus, for the metrics, the report)."""
    from repro.obs import (
        format_profile, run_manifest, run_metrics, write_metrics,
        write_trace,
    )

    events = ledger.events()
    manifest = run_manifest(
        config=config,
        workload=workload,
        seed=getattr(args, "seed", None),
        argv=sys.argv[1:],
        ledger=ledger if args.ledger else None,
    )
    if args.trace:
        path = write_trace(args.trace, events, metadata={"manifest": manifest})
        print(f"trace written       : {path} (open in Perfetto)")
    if args.metrics_out:
        path = write_metrics(run_metrics(report, events), args.metrics_out)
        print(f"metrics written     : {path}")
    if args.manifest_out:
        Path(args.manifest_out).write_text(
            json.dumps(manifest, indent=2) + "\n"
        )
        print(f"manifest written    : {args.manifest_out}")
    if args.profile:
        print("\nhottest phases (host wall clock)")
        print(format_profile(events, args.profile_top))


def _validate_run_args(args: argparse.Namespace) -> Optional[str]:
    """Flag-combination checks; returns an error message or None."""
    if (
        args.metrics_out is not None
        and args.metrics_out.suffix not in METRICS_SUFFIXES
    ):
        return (
            f"--metrics-out suffix {args.metrics_out.suffix!r} is not "
            f"supported; use one of {', '.join(METRICS_SUFFIXES)}"
        )
    if args.resume and args.checkpoint_dir is None:
        return "--resume requires --checkpoint-dir DIR (where to find the snapshots)"
    return _validate_sweep_args(args)


def _validate_sweep_args(args: argparse.Namespace) -> Optional[str]:
    """Sweep flag-combination checks; returns an error message or None."""
    if args.jobs < 1:
        return "--jobs must be a positive worker count"
    if args.no_cache and args.cache_dir is not None:
        return (
            "--no-cache conflicts with --cache-dir DIR "
            "(drop one of the two)"
        )
    return None


def _open_ledger(args: argparse.Namespace):
    """The run ledger requested by ``--ledger DIR`` (run id derived
    from the command line), or the shared null writer."""
    ledger_dir = getattr(args, "ledger", None)
    obs = ObsConfig(ledger_dir=str(ledger_dir) if ledger_dir else None)
    return obs.make_ledger(*sys.argv[1:])


def _exports_ledger(args: argparse.Namespace, exporting: bool):
    """The ``--ledger DIR`` recorder; without one, a run whose exports
    (``--trace``, ``--metrics-out``, ``--profile``) need the event
    stream records it in a temporary directory that
    :func:`_finish_ledger` removes."""
    if exporting and args.ledger is None:
        from repro.obs import open_run_ledger

        return open_run_ledger(tempfile.mkdtemp(prefix="repro-ledger-"))
    return _open_ledger(args)


def _close_ledger(ledger, stream=None) -> None:
    if ledger is not None and ledger.enabled:
        ledger.close()
        print(
            f"ledger written      : {ledger.path} "
            f"({ledger.events_recorded} events)",
            file=stream,
        )


def _finish_ledger(args: argparse.Namespace, ledger) -> None:
    if args.ledger is None and ledger.enabled:
        ledger.close()
        shutil.rmtree(ledger.path.parent, ignore_errors=True)
    else:
        _close_ledger(ledger)


def _sweep_runner(args: argparse.Namespace, env=None):
    """A SweepRunner from the CLI sweep flags, or None when they are
    all at their defaults (callers then keep their serial paths).
    ``env`` supplies the supervision, attempt and keep-going policy."""
    cache_dir = None if args.no_cache else args.cache_dir
    ledger_dir = getattr(args, "ledger", None)
    keep_going = getattr(args, "keep_going", False)
    if (args.jobs <= 1 and cache_dir is None and ledger_dir is None
            and not keep_going):
        return None
    from repro.sweep import SweepRunner, open_cache

    policy = {} if env is None else dict(
        resilience=env.resilience_config(),
        max_attempts=env.max_attempts,
        keep_going=env.keep_going,
    )
    return SweepRunner(
        jobs=args.jobs,
        cache=open_cache(str(cache_dir) if cache_dir else None),
        ledger=_open_ledger(args),
        **policy,
    )


# The ``run`` cell moved to repro.service.simulate so the simulation
# service and the CLI share one cell (and therefore one cache key
# space); this alias keeps the sweep path reading naturally here.
from repro.service.simulate import run_cell as _run_cell  # noqa: E402


def _suite_cell(env, point) -> dict:
    """Build one suite matrix — pure sweep cell for ``repro suite``."""
    name, scale = point
    m = get_benchmark(name).build(scale)
    return {"rows": m.num_rows, "nnz": m.nnz}


def _cmd_run(args: argparse.Namespace) -> int:
    problem = _validate_run_args(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    # Observability and resilience flags need the live execution (a
    # cache hit would skip the simulation the trace/checkpoint
    # observes), so the sweep/cache path only engages when none of them
    # are set.
    exporting = bool(args.trace or args.metrics_out or args.profile)
    observed = (
        exporting or args.manifest_out or args.checkpoint_dir
        or args.resume or args.timeout or args.max_retries
        or args.ledger  # the flight recorder must see the live run
    )
    sweep = None if observed else _sweep_runner(args)
    if sweep is not None:
        from repro.sweep import sweep_map

        point = (
            args.matrix, args.scale, args.kernel, args.k,
            args.pes, args.cache_shrink, args.seed, args.replay,
            args.execution,
        )
        from repro.service.simulate import format_run_summary

        summary = sweep_map(sweep, "run", None, _run_cell, [point])[0]
        print(format_run_summary(summary, args.kernel, args.k))
        return 0
    from repro.resilience import RunSupervisor

    a = load_matrix(args.matrix, args.scale)
    resilience = ResilienceConfig(
        checkpoint_dir=(
            str(args.checkpoint_dir) if args.checkpoint_dir else None
        ),
        checkpoint_interval=args.checkpoint_interval,
        resume=args.resume,
        timeout_s=args.timeout,
        max_retries=args.max_retries,
    )
    cfg = dataclasses.replace(
        scaled_config(args.pes, cache_shrink=args.cache_shrink),
        resilience=resilience,
    )
    if args.replay is not None:
        cfg = dataclasses.replace(cfg, replay=args.replay)
    if args.execution is not None:
        cfg = dataclasses.replace(cfg, execution=args.execution)
    ledger = _exports_ledger(args, exporting)
    supervisor = RunSupervisor(resilience=resilience, ledger=ledger)
    rng = np.random.default_rng(args.seed)
    b = rng.random((a.num_cols, args.k), dtype=np.float32)
    try:
        if args.kernel == "spmm":
            report = supervisor.run_kernel(cfg, "spmm", a, b)
        else:
            b_r = rng.random((a.num_rows, args.k), dtype=np.float32)
            report = supervisor.run_kernel(cfg, "sddmm", a, b_r, b)
    except BaseException:
        # A failed run's events still reach the --ledger directory.
        _finish_ledger(args, ledger)
        raise
    outcome = supervisor.last_outcome
    print(f"matrix              : {a}")
    print(f"kernel              : {args.kernel} (K={args.k})")
    print(f"system              : {cfg.name} "
          f"({cfg.num_pes} PEs)")
    print(f"simulated time      : {report.time_ms:.4f} ms")
    print(f"DRAM accesses       : {report.dram_accesses}")
    print(f"bandwidth utilization: {report.bandwidth_utilization:.1%}")
    print(f"requests per cycle  : {report.requests_per_cycle:.2f}")
    print(f"load imbalance      : {report.load_imbalance:.2f}")
    if outcome is not None and (outcome.degraded or outcome.retries):
        print(f"backend             : {outcome.backend}/{outcome.replay} "
              f"(requested {outcome.requested_backend}/"
              f"{outcome.requested_replay}, "
              f"{outcome.retries} retries, "
              f"{outcome.degradations} degradations)")
    print(report.stats.summary())
    _write_exports(
        args, cfg, report, ledger,
        workload={
            "matrix": args.matrix, "scale": args.scale,
            "kernel": args.kernel, "k": args.k, "pes": args.pes,
        },
    )
    _finish_ledger(args, ledger)
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    a = load_matrix(args.matrix, args.scale)
    cfg = scaled_config(args.pes, cache_shrink=args.cache_shrink)
    if args.replay is not None:
        cfg = dataclasses.replace(cfg, replay=args.replay)
    if args.execution is not None:
        cfg = dataclasses.replace(cfg, execution=args.execution)
    system = SpadeSystem(cfg)
    result = autotune(
        system, a, args.kernel, args.k,
        quick=not args.full, row_panel_divisor=args.rp_divisor,
    )
    print(f"matrix: {a}")
    stats = reuse_stats(a)
    print(
        f"estimated RU: {estimate_ru(a).value} "
        f"(col gini {stats.col_gini:.2f}, "
        f"bandedness {stats.bandedness:.2f})"
    )
    print(f"\n{'setting':<42} time (ms)")
    for settings, time_ns in result.ranked():
        marker = " <- best" if settings == result.best_settings else ""
        print(f"{settings.describe():<42} {time_ns / 1e6:.4f}{marker}")
    print(
        f"\nSPADE Opt gain over Base: "
        f"{result.speedup_over_base:.2f}x"
    )
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.obs import run_manifest, write_trace

    problem = _validate_sweep_args(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    # Tracing wants to observe the builds, so it forces the serial path.
    sweep = None if args.trace else _sweep_runner(args)
    header = (
        f"{'name':<6} {'full name':<26} {'domain':<24} {'RU':<7} "
        f"{'rows':>8} {'nnz':>9}  (at --scale {args.scale})"
    )
    if sweep is not None:
        from repro.sweep import sweep_map

        points = [(bench.name, args.scale) for bench in SUITE]
        dims = sweep_map(sweep, "suite", None, _suite_cell, points)
        print(header)
        for bench, d in zip(SUITE, dims):
            print(
                f"{bench.name:<6} {bench.full_name:<26} "
                f"{bench.domain:<24} {bench.ru.value:<7} "
                f"{d['rows']:>8} {d['nnz']:>9}"
            )
        _close_ledger(sweep.ledger)
        return 0
    ledger = _exports_ledger(args, bool(args.trace))
    print(header)
    for bench in SUITE:
        with ledger.span(f"build {bench.name}", cat="suite"):
            m = bench.build(args.scale)
        print(
            f"{bench.name:<6} {bench.full_name:<26} {bench.domain:<24} "
            f"{bench.ru.value:<7} {m.num_rows:>8} {m.nnz:>9}"
        )
    if args.trace:
        manifest = run_manifest(
            workload={"command": "suite", "scale": args.scale},
            argv=sys.argv[1:],
            ledger=ledger if args.ledger else None,
        )
        path = write_trace(
            args.trace, ledger.events(), metadata={"manifest": manifest}
        )
        print(f"trace written: {path} (open in Perfetto)")
    _finish_ledger(args, ledger)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    problem = _validate_sweep_args(args)
    if problem is None and args.max_attempts is not None \
            and args.max_attempts < 1:
        problem = "--max-attempts must be >= 1"
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    env = get_environment()
    # CLI flags win; otherwise fall back to REPRO_JOBS/REPRO_CACHE_DIR/
    # REPRO_MAX_ATTEMPTS/REPRO_KEEP_GOING.
    if args.keep_going:
        env = dataclasses.replace(env, keep_going=True)
    if args.max_attempts is not None:
        env = dataclasses.replace(env, max_attempts=args.max_attempts)
    sweep = _sweep_runner(args, env) or env.sweep()
    for name in args.names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; choose from "
                  f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
            return 2
        module = importlib.import_module(f"repro.bench.{name}")
        holes_before = _holes(sweep)
        result = (
            module.run(sweep=sweep)
            if name == "sec7g"
            else module.run(env, sweep=sweep)
        )
        holes = _holes(sweep) - holes_before
        if holes:
            # Results have None holes; the driver's formatter cannot
            # render them, so report the gap instead of a partial table.
            print(f"{name}: output suppressed — {holes} grid cell(s) "
                  f"failed or quarantined (see the run ledger)")
        else:
            print(module.format_result(result))
        print()
    if sweep is not None:
        if sweep.report.total:
            print(f"sweep: {sweep.report.summary()}", file=sys.stderr)
        # Diagnostics go to stderr so stdout stays byte-comparable
        # between serial, parallel and cached runs.
        _close_ledger(sweep.ledger, stream=sys.stderr)
    return 0


def _holes(sweep) -> int:
    """Grid cells a keep-going sweep has left as ``None`` so far."""
    if sweep is None:
        return 0
    return sweep.report.failed + sweep.report.quarantined


def _cmd_serve(args: argparse.Namespace) -> int:
    """Long-lived simulation service over the sweep substrate: memoized
    answers from the shared result cache, request coalescing, admission
    control, and the PR 9 supervised pool doing the execution."""
    import asyncio

    from repro.service.admission import AdmissionPolicy
    from repro.sweep.pool import ServicePool
    from repro.service.server import ServiceServer, SimulationService
    from repro.sweep.cache import ResultCache

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    cache = ResultCache(str(args.cache_dir))
    ledger = _open_ledger(args)
    pool = ServicePool(
        cache,
        workers=args.workers,
        ledger=ledger,
        max_attempts=args.max_attempts,
    )
    policy = AdmissionPolicy(
        max_queue=args.max_queue,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
    )
    service = SimulationService(cache, pool, policy=policy, ledger=ledger)
    server = ServiceServer(service, host=args.host, port=args.port)

    async def _serve() -> None:
        task = asyncio.ensure_future(server.serve())
        while not server._started.is_set():
            await asyncio.sleep(0.01)
        print(f"serving             : http://{server.host}:{server.port}")
        print(f"cache dir           : {cache.directory}")
        print(f"workers             : {pool.workers}")
        sys.stdout.flush()
        await task

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        pool.close()
        stats = service.stats()
        print(
            f"served              : {stats['served']} answers "
            f"({stats['memo_hits']} memo, "
            f"{stats['coalescing']['coalesced']} coalesced, "
            f"{stats['pool']['executed']} executed)",
            file=sys.stderr,
        )
        _close_ledger(ledger, stream=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one simulation request to a running ``repro serve`` and
    print the answer exactly as ``repro run`` would."""
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.simulate import format_run_summary

    client = ServiceClient(
        host=args.host, port=args.port, timeout_s=args.timeout
    )
    body = {
        "matrix": args.matrix, "scale": args.scale,
        "kernel": args.kernel, "k": args.k, "pes": args.pes,
        "cache_shrink": args.cache_shrink, "seed": args.seed,
        "replay": args.replay, "execution": args.execution,
        "tenant": args.tenant, "priority": args.priority,
    }
    try:
        answer = client.simulate(**body)
    except ServiceError as exc:
        message = f"error: {exc}"
        if exc.retry_after_s:
            message += f" (retry after {exc.retry_after_s:g}s)"
        print(message, file=sys.stderr)
        return 3 if exc.status in (429, 503) else 2
    except OSError as exc:
        print(
            f"error: cannot reach service at "
            f"{args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(answer, indent=2, sort_keys=True))
        return 0
    print(format_run_summary(answer["result"], args.kernel, args.k))
    if args.verbose:
        print(
            f"source              : {answer['source']} "
            f"(key {answer['key'][:16]})",
            file=sys.stderr,
        )
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    cfg = scaled_config(args.pes, cache_shrink=args.cache_shrink)
    print(config_summary(cfg))
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import aggregate, format_report

    agg = aggregate(args.paths)
    if not agg["files"]:
        print("error: no ledger files found", file=sys.stderr)
        return 2
    if args.json:
        text = json.dumps(agg, indent=2, sort_keys=True) + "\n"
    else:
        text = format_report(agg, top=args.top) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"report written      : {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_obs_validate(args: argparse.Namespace) -> int:
    from repro.obs import validate_ledgers

    try:
        info = validate_ledgers(
            args.paths, require_dispatch=args.require_dispatch
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"validated {info['events']} events "
        f"across {info['files']} ledger file(s)"
    )
    for etype, count in sorted(info["by_type"].items()):
        print(f"  {etype:<12} {count}")
    return 0


def _cmd_obs_schema(args: argparse.Namespace) -> int:
    from repro.obs import as_json_schema

    print(json.dumps(as_json_schema(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPADE (ISCA 2023) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--pes", type=int, default=8,
                       help="number of SPADE PEs (default 8)")
        p.add_argument("--cache-shrink", type=float, default=32.0,
                       help="extra cache shrink factor (default 32)")
        p.add_argument("--scale", default="small",
                       choices=["tiny", "small", "default", "large"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--replay", choices=REPLAY_MODES, default=None,
                       help="trace-replay backend (default: the config "
                       "default; all modes are bit-identical, they "
                       "differ only in host speed)")
        p.add_argument("--execution", choices=EXECUTION_MODES,
                       default=None,
                       help="PE execution backend (default: the config "
                       "default; all modes are bit-identical)")

    def sweep_flags(p):
        grp = p.add_argument_group("parallel sweep")
        grp.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (default 1; parallel "
                         "output is byte-identical to serial)")
        grp.add_argument("--cache-dir", type=Path, default=None,
                         metavar="DIR",
                         help="content-addressed result cache so "
                         "re-runs skip completed jobs")
        grp.add_argument("--no-cache", action="store_true",
                         help="never read or write the result cache")
        grp.add_argument("--ledger", type=Path, default=None,
                         metavar="DIR",
                         help="record a run-ledger flight recording "
                         "into DIR (JSONL lifecycle events plus the "
                         "replay dispatch audit; see 'repro obs')")

    run_p = sub.add_parser("run", help="execute one kernel")
    run_p.add_argument("--matrix", required=True,
                       help="suite name (e.g. KRO) or .mtx path")
    run_p.add_argument("--kernel", choices=["spmm", "sddmm"],
                       default="spmm")
    run_p.add_argument("--k", type=int, default=32,
                       help="dense matrix row size")
    common(run_p)
    tel = run_p.add_argument_group(
        "exports (views of the run ledger; recorded in a temporary "
        "directory unless --ledger is given)"
    )
    tel.add_argument("--trace", type=Path, default=None, metavar="PATH",
                     help="write a Chrome trace-event JSON (Perfetto)")
    tel.add_argument("--metrics-out", type=Path, default=None,
                     metavar="PATH",
                     help="write the run's metrics (.json/.csv/.prom "
                     "chosen by suffix)")
    tel.add_argument("--manifest-out", type=Path, default=None,
                     metavar="PATH",
                     help="write the run provenance manifest JSON")
    tel.add_argument("--profile", action="store_true",
                     help="print the hottest phases after the run")
    tel.add_argument("--profile-top", type=int, default=10,
                     help="rows in the --profile table (default 10)")
    res = run_p.add_argument_group("resilience (long runs)")
    res.add_argument("--checkpoint-dir", type=Path, default=None,
                     metavar="DIR",
                     help="write an epoch snapshot into DIR so the run "
                     "can be resumed after a crash or kill")
    res.add_argument("--checkpoint-interval", type=int, default=1,
                     metavar="N",
                     help="snapshot every N epochs (default 1)")
    res.add_argument("--resume", action="store_true",
                     help="resume from the latest snapshot in "
                     "--checkpoint-dir (bit-identical to an "
                     "uninterrupted run)")
    res.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="wall-clock watchdog per attempt, in seconds")
    res.add_argument("--max-retries", type=int, default=0, metavar="N",
                     help="retry transient failures up to N times per "
                     "execution backend (default 0)")
    sweep_flags(run_p)
    run_p.set_defaults(func=_cmd_run)

    tune_p = sub.add_parser("autotune", help="SPADE Opt search")
    tune_p.add_argument("--matrix", required=True)
    tune_p.add_argument("--kernel", choices=["spmm", "sddmm"],
                        default="spmm")
    tune_p.add_argument("--k", type=int, default=32)
    tune_p.add_argument("--full", action="store_true",
                        help="full Table 3 sweep (default: quick)")
    tune_p.add_argument("--rp-divisor", type=int, default=8)
    common(tune_p)
    tune_p.set_defaults(func=_cmd_autotune)

    suite_p = sub.add_parser("suite", help="list the Table 2 suite")
    suite_p.add_argument("--scale", default="small",
                         choices=["tiny", "small", "default", "large"])
    suite_p.add_argument("--trace", type=Path, default=None,
                         metavar="PATH",
                         help="trace suite construction (Perfetto JSON)")
    sweep_flags(suite_p)
    suite_p.set_defaults(func=_cmd_suite)

    exp_p = sub.add_parser("experiment",
                           help="run paper experiments by name")
    exp_p.add_argument("names", nargs="+",
                       help=f"one of: {', '.join(EXPERIMENTS)}")
    sweep_flags(exp_p)
    crash = exp_p.add_argument_group("crash safety")
    crash.add_argument("--keep-going", action="store_true",
                       help="complete the sweep around failed or "
                       "quarantined cells instead of raising "
                       "(default: REPRO_KEEP_GOING)")
    crash.add_argument("--max-attempts", type=int, default=None,
                       metavar="N",
                       help="attempts before a cell that keeps killing "
                       "its worker is quarantined (default: "
                       "REPRO_MAX_ATTEMPTS, else 3)")
    exp_p.set_defaults(func=_cmd_experiment)

    srv_p = sub.add_parser(
        "serve",
        help="simulation-as-a-service HTTP server (memoized answers, "
        "request coalescing, admission control)",
    )
    srv_p.add_argument("--host", default="127.0.0.1")
    srv_p.add_argument("--port", type=int, default=8765,
                       help="listen port (0 picks a free one; the "
                       "bound port is printed at startup)")
    srv_p.add_argument("--workers", type=int, default=2, metavar="N",
                       help="simulation worker processes (default 2)")
    srv_p.add_argument("--cache-dir", type=Path, required=True,
                       metavar="DIR",
                       help="content-addressed result cache backing "
                       "the memo layer (shared with 'repro "
                       "run/experiment --cache-dir': their keys are "
                       "identical)")
    srv_p.add_argument("--ledger", type=Path, default=None,
                       metavar="DIR",
                       help="record request lifecycle + execution "
                       "events into DIR (see 'repro obs report')")
    srv_p.add_argument("--max-queue", type=int, default=64, metavar="N",
                       help="maximum queued+running executions before "
                       "503 (default 64)")
    srv_p.add_argument("--quota-rate", type=float, default=4.0,
                       metavar="R",
                       help="per-tenant admitted requests per second "
                       "(default 4)")
    srv_p.add_argument("--quota-burst", type=float, default=16.0,
                       metavar="B",
                       help="per-tenant token-bucket burst (default 16)")
    srv_p.add_argument("--max-attempts", type=int, default=3,
                       metavar="N",
                       help="attempts before a crash-looping job is "
                       "quarantined (default 3)")
    srv_p.set_defaults(func=_cmd_serve)

    sub_p = sub.add_parser(
        "submit",
        help="submit one simulation to a running 'repro serve'",
    )
    sub_p.add_argument("--host", default="127.0.0.1")
    sub_p.add_argument("--port", type=int, default=8765)
    sub_p.add_argument("--matrix", required=True,
                       help="suite name (e.g. KRO); the service does "
                       "not accept filesystem paths")
    sub_p.add_argument("--kernel", choices=["spmm", "sddmm"],
                       default="spmm")
    sub_p.add_argument("--k", type=int, default=32,
                       help="dense matrix row size")
    common(sub_p)
    sub_p.add_argument("--tenant", default="anonymous",
                       help="quota accounting identity (default "
                       "'anonymous')")
    sub_p.add_argument("--priority", choices=["interactive", "batch"],
                       default="interactive")
    sub_p.add_argument("--timeout", type=float, default=300.0,
                       metavar="S",
                       help="client-side wait for the answer (default "
                       "300)")
    sub_p.add_argument("--json", action="store_true",
                       help="print the raw answer payload as JSON")
    sub_p.add_argument("--verbose", action="store_true",
                       help="also report the answer's source (memo / "
                       "executed / coalesced) on stderr")
    sub_p.set_defaults(func=_cmd_submit)

    cfg_p = sub.add_parser("config", help="show a system configuration")
    cfg_p.add_argument("--pes", type=int, default=224)
    cfg_p.add_argument("--cache-shrink", type=float, default=1.0)
    cfg_p.set_defaults(func=_cmd_config)

    obs_p = sub.add_parser(
        "obs", help="inspect run-ledger flight recordings"
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)
    rep_p = obs_sub.add_parser(
        "report", help="aggregate ledgers into a rollup"
    )
    rep_p.add_argument("paths", nargs="+", type=Path,
                       help="ledger files or directories of *.jsonl")
    rep_p.add_argument("--json", action="store_true",
                       help="emit the raw aggregate as JSON")
    rep_p.add_argument("--top", type=int, default=10,
                       help="rows per table (default 10)")
    rep_p.add_argument("--out", type=Path, default=None, metavar="PATH",
                       help="write the report here instead of stdout")
    rep_p.set_defaults(func=_cmd_obs_report)
    val_p = obs_sub.add_parser(
        "validate", help="schema-validate every ledger event"
    )
    val_p.add_argument("paths", nargs="+", type=Path,
                       help="ledger files or directories of *.jsonl")
    val_p.add_argument("--require-dispatch", action="store_true",
                       help="fail unless at least one replay dispatch "
                       "audit event is present")
    val_p.set_defaults(func=_cmd_obs_validate)
    schema_p = obs_sub.add_parser(
        "schema", help="print the ledger event JSON schema"
    )
    schema_p.set_defaults(func=_cmd_obs_schema)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
