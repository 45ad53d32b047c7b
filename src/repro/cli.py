"""``repro-lupine``: command-line front end.

Subcommands:

- ``build APP``        -- run the Figure 2 pipeline for one of the top-20
  apps and print the resulting artifact sizes.
- ``boot APP``         -- build and boot, printing the phase breakdown.
- ``config APP``       -- print the derived kernel config fragment.
- ``experiment ID``    -- run one paper experiment (fig3..table5) and print
  the table/figure; ``all`` runs everything.
- ``run-all``          -- run every experiment, in order, through the
  harness, with result caching and a JSON run manifest plus
  ``trace.json``/``metrics.json`` under ``benchmarks/output/``; ``--cold``
  forces a full re-run.  Prints a failure summary and exits nonzero when
  any experiment's final status is not ``ok``/``cache_hit``.
- ``chaos``            -- run the suite under a seeded fault schedule and
  assert the resilience invariants (see docs/RESILIENCE.md).
- ``trace --run``      -- render the observability report of the last
  ``run-all``: top-N self-time spans and the per-experiment phase
  breakdown (see docs/OBSERVABILITY.md).
- ``regress A B``      -- the perf gate: diff two runs' metrics/manifests
  and exit nonzero past a threshold.
- ``bench-resolve``, ``bench-guests``, ``bench-serve``, ``bench-derive``
  -- the counted benchmarks (:data:`BENCHES`): resolver work, fleet
  simulation, traffic serving with and without guest faults, and
  trace-driven derivation.  Each writes deterministic work-counter
  deltas, gauges and digests to ``BENCH_<name>.json``; ``--check``
  enforces its acceptance criteria and ``--snapshot PATH`` also writes
  the document to PATH (how a baseline is re-pinned).
- ``fleet-serve``      -- one traffic-driven serving run: a seeded
  open-loop trace (diurnal/poisson/bursty) routed across warm pools with
  cold boots and capacity queueing, printing the latency/cold-start
  report and writing its manifest to ``serve_report.json`` (see
  docs/SERVING.md).
- ``derive``           -- trace-driven specialization: record an app's
  usage (syscalls, config options, facilities), derive a minimal config
  from the observation and diff it against the curated one (see
  docs/SPECIALIZATION.md).
- ``apps``             -- list the top-20 application registry.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, NamedTuple, Optional

from repro._version import __version__


class Bench(NamedTuple):
    """One counted benchmark: where it lives and how the CLI presents it."""

    #: Module providing ``run_bench``, ``check_result`` and
    #: ``render_summary`` (imported only when the subcommand runs).
    module: str
    #: Result document, written under ``--output-dir``.
    result: str
    help: str
    #: What ``--check`` requires ("exit 1 unless ...").
    check: str
    #: What a passing ``--check`` confirms.
    ok: str


#: Subcommand -> counted benchmark; :func:`_cmd_bench` runs every entry.
BENCHES: Dict[str, Bench] = {
    "bench-resolve": Bench(
        module="repro.kconfig.bench",
        result="BENCH_resolve.json",
        help="kconfig resolver microbenchmark: cold resolution vs "
             "warm-start delta vs cache hit",
        check="warm-start visits >=10x fewer options than cold "
              "resolutions and cache hits do no resolution work",
        ok="warm-start and cache criteria hold",
    ),
    "bench-guests": Bench(
        module="repro.simcore.bench",
        result="BENCH_guests.json",
        help="fleet-simulation microbenchmark: boot+serve whole guest "
             "fleets per kernel policy through the cohort fold",
        check="every scenario reports, the general fleet has >= 1000 "
              "guests in its manifest on exactly one shared kernel with "
              "every cohort representative monitor-checked, the per-app "
              "fleet diversifies, and every fleet builds through the "
              "kernel memo",
        ok="fleet scale and kernel-sharing criteria hold",
    ),
    "bench-serve": Bench(
        module="repro.traffic.bench",
        result="BENCH_serve.json",
        help="traffic-serving microbenchmark: the canonical 100k-request "
             "diurnal trace per warm-pool policy, with and without the "
             "stock guest-fault schedule, twice each",
        check="every scenario reproduces its manifest digest on rerun "
              "(clean reruns under an empty fault plane, faulted reruns "
              "across worker processes), scale-to-zero cold-boots >= 1000 "
              "guests with a nonzero cold-start fraction, the fixed pool "
              "buys back the latency tail, and both faulted runs recover "
              "(restarts, retries, request conservation, error rate below "
              "the fault mass)",
        ok="determinism, churn scale, warm-pool tail and recovery "
           "criteria hold",
    ),
    "bench-derive": Bench(
        module="repro.core.bench",
        result="BENCH_derive.json",
        help="trace-driven specialization microbenchmark: record + "
             "derive + audit for every top-20 app, twice each",
        check="every derived config covers 100%% of its recorded usage, "
              "stays within 1.5x the curated option count, and both "
              "reruns reproduce their digests",
        ok="full coverage, bounded option ratio, and rerun digests hold",
    ),
}


def _cmd_apps(args: argparse.Namespace) -> int:
    from repro.apps.registry import top20_in_popularity_order

    print(f"{'name':<15} {'downloads(B)':>12} {'options':>8}  description")
    for app in top20_in_popularity_order():
        print(
            f"{app.name:<15} {app.downloads_billions:>12.1f} "
            f"{app.option_count:>8}  {app.description}"
        )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    from repro.apps.registry import get_app
    from repro.core.lupine import LupineBuilder
    from repro.core.variants import Variant

    app = get_app(args.app)
    builder = LupineBuilder(variant=Variant(args.variant))
    unikernel = builder.build_for_app(app)
    print(f"built {unikernel.build.config.name}")
    print(f"  kernel image : {unikernel.kernel_image_mb:.2f} MB "
          f"({len(unikernel.build.config.enabled)} options, "
          f"kml={'yes' if unikernel.build.kml else 'no'})")
    print(f"  rootfs (ext2): {unikernel.rootfs_size_mb:.2f} MB "
          f"({unikernel.rootfs.inode_count} inodes)")
    print(f"  min memory   : {unikernel.min_memory_mb()} MB")
    return 0


def _cmd_boot(args: argparse.Namespace) -> int:
    from repro.apps.registry import get_app
    from repro.core.lupine import LupineBuilder
    from repro.core.variants import Variant

    app = get_app(args.app)
    unikernel = LupineBuilder(variant=Variant(args.variant)).build_for_app(app)
    guest = unikernel.boot()
    print(guest.boot_report.breakdown())
    for line in guest.console:
        print(f"console| {line}")
    return 0 if guest.ran_successfully else 1


def _cmd_config(args: argparse.Namespace) -> int:
    from repro.apps.registry import get_app
    from repro.core.specialization import app_config, app_option_requirements
    from repro.kconfig.parser import format_config_fragment

    app = get_app(args.app)
    extra = sorted(app_option_requirements(app))
    print(f"# lupine-{app.name}: lupine-base + {len(extra)} options")
    for option in extra:
        print(f"#   + CONFIG_{option}")
    if args.full:
        config = app_config(app)
        values = {name: config.value(name) for name in config.enabled}
        sys.stdout.write(format_config_fragment(values))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.run or args.app is None:
        return _cmd_trace_run(args)
    from repro.apps.registry import get_app
    from repro.core.tracing import trace_app_run
    from repro.kconfig.derive import usage_option_requirements

    app = get_app(args.app)
    trace = trace_app_run(app)
    print(f"# traced {app.name}: {trace.call_count} syscalls, "
          f"{len(trace.syscalls)} distinct")
    if args.counts:
        for name, count in sorted(trace.syscall_counts.items(),
                                  key=lambda item: -item[1]):
            print(f"{count:>6}  {name}")
    for facility in sorted(trace.facilities):
        print(f"facility: {facility}")
    options = usage_option_requirements(trace)
    print("derived options: " + (", ".join(sorted(options)) or "(none)"))
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    """Render the observability report of a ``run-all`` invocation."""
    import pathlib

    from repro.harness.runner import default_output_dir
    from repro.observe.export import (
        METRICS_NAME,
        TRACE_NAME,
        render_trace_report,
    )

    output_dir = (
        pathlib.Path(args.output_dir)
        if args.output_dir is not None else default_output_dir()
    )
    trace_path = output_dir / TRACE_NAME
    if not trace_path.is_file():
        print(
            f"no {TRACE_NAME} under {output_dir}; run "
            "'repro-lupine run-all' first",
            file=sys.stderr,
        )
        return 2
    print(render_trace_report(
        trace_path,
        metrics_path=output_dir / METRICS_NAME,
        top_n=args.top,
    ))
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    from repro.observe import regress

    argv = [args.baseline, args.current,
            "--threshold", str(args.threshold), "--min-ms", str(args.min_ms)]
    if args.no_timings:
        argv.append("--no-timings")
    return regress.main(argv)


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    import pathlib

    from repro.harness.runner import default_output_dir
    from repro.traffic.arrivals import bursty_trace, poisson_trace
    from repro.traffic.bench import canonical_trace
    from repro.traffic.policy import named_policy, policy_names
    from repro.traffic.serve import (
        SERVE_REPORT_NAME,
        ServeSpec,
        run_serving_many,
    )

    if args.trace == "diurnal":
        trace = canonical_trace(requests=args.requests)
        if args.mean_rps is not None:
            import dataclasses

            trace = dataclasses.replace(trace, mean_rps=args.mean_rps)
    elif args.trace == "poisson":
        trace = poisson_trace(requests=args.requests,
                              mean_rps=args.mean_rps or 1000)
    else:
        rps = args.mean_rps or 1000
        trace = bursty_trace(requests=args.requests,
                             on_rps=4 * rps, off_rps=max(rps / 4, 1.0))
    overrides = {}
    if args.guests is not None:
        overrides["max_total"] = args.guests
    if args.idle_timeout is not None:
        overrides["idle_timeout_s"] = (
            None if args.idle_timeout <= 0 else args.idle_timeout
        )
    # ``--policy all``: a policy sweep of whole runs, fanned out across
    # worker processes by --jobs (run-level parallelism; a single run
    # never shards -- see docs/SERVING.md).
    selected = (list(policy_names()) if args.policy == "all"
                else [args.policy])
    specs = []
    for name in selected:
        policy = named_policy(name)
        if overrides:
            policy = policy.with_overrides(**overrides)
        specs.append(ServeSpec(trace=trace, policy=policy, seed=args.seed,
                               record_usage=args.record_usage))
    if args.chaos:
        from repro import faults
        from repro.traffic.chaos import default_serving_schedule

        with faults.activated(default_serving_schedule(args.chaos_seed)):
            reports = run_serving_many(specs, jobs=args.jobs)
    else:
        reports = run_serving_many(specs, jobs=args.jobs)
    output_dir = (
        pathlib.Path(args.output_dir)
        if args.output_dir is not None else default_output_dir()
    )
    output_dir.mkdir(parents=True, exist_ok=True)
    import json

    for name, report in zip(selected, reports):
        print(report.render())
        report_name = (
            SERVE_REPORT_NAME if len(selected) == 1
            else f"serve_report.{name}.json"
        )
        report_path = output_dir / report_name
        report_path.write_text(
            json.dumps(report.manifest(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"report       : {report_path}")
        print(f"digest       : sha256 {report.manifest_digest}")
        if args.record_usage and report.usage_by_app:
            from repro.kconfig.derive import usage_option_requirements

            print("recorded usage (per app: calls -> derived options):")
            for app_name, trace in report.usage_by_app.items():
                options = sorted(usage_option_requirements(trace))
                print(f"  {app_name:<12} {trace.call_count:>8} calls, "
                      f"{len(trace.syscalls):>2} syscalls -> "
                      f"{', '.join(options) if options else '(base only)'}")
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    from repro.apps.registry import get_app, top20_in_popularity_order
    from repro.core.specialization import app_option_requirements
    from repro.core.tracing import usage_trace_for_app
    from repro.kconfig.derive import derivation_report

    apps = ([get_app(args.app)] if args.app is not None
            else list(top20_in_popularity_order()))
    for app in apps:
        trace = usage_trace_for_app(app)
        report = derivation_report(trace)
        curated = app_option_requirements(app)
        print(f"{app.name}: {trace.call_count} recorded calls, "
              f"{len(trace.syscalls)} distinct syscalls, "
              f"{len(report.extras)} options beyond lupine-base")
        for option in report.extras:
            marker = "" if option in curated else "  (observed, not curated)"
            print(f"  {option}{marker}")
        missed = sorted(curated - set(report.extras))
        for option in missed:
            print(f"  {option}  (curated, never exercised)")
        print(f"  options      : {report.option_count} enabled "
              f"(covers recorded usage: {'yes' if report.covers else 'NO'})")
        print(f"  usage digest : sha256 {report.usage_digest[:16]}")
        print(f"  config digest: sha256 {report.config_digest[:16]}")
        if args.defconfig:
            for option in report.request:
                print(f"CONFIG_{option}=y")
    return 0


def _resolve_config_argument(name: str):
    from repro.apps.registry import get_app
    from repro.core.specialization import (
        app_config,
        derived_app_config,
        lupine_general_config,
    )
    from repro.kconfig.configs import lupine_base_config, microvm_config

    if name == "microvm":
        return microvm_config()
    if name in ("lupine-base", "base"):
        return lupine_base_config()
    if name in ("lupine-general", "general"):
        return lupine_general_config()
    if name.startswith("derived:"):
        return derived_app_config(name.partition(":")[2])
    return app_config(get_app(name))


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.kconfig.diff import diff_configs

    left = _resolve_config_argument(args.left)
    right = _resolve_config_argument(args.right)
    diff = diff_configs(left, right)
    for line in diff.summary_lines(show_options=args.options):
        print(line)
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.selfcheck import all_passed, run_selfcheck

    results = run_selfcheck()
    for name, passed, detail in results:
        status = "ok " if passed else "FAIL"
        print(f"[{status}] {name}: {detail}")
    return 0 if all_passed(results) else 1


def _cmd_dmesg(args: argparse.Namespace) -> int:
    from repro.apps.registry import get_app
    from repro.boot.console import dmesg
    from repro.core.lupine import LupineBuilder
    from repro.core.variants import Variant

    guest = LupineBuilder(variant=Variant(args.variant)).build_for_app(
        get_app(args.app)
    ).boot()
    print(dmesg(guest.kernel.image, guest.boot_report))
    return 0


def _cmd_lmbench(args: argparse.Namespace) -> int:
    from repro.experiments import table5_lmbench
    from repro.metrics.reporting import render_table

    print(render_table(table5_lmbench.table(table5_lmbench.run())))
    return 0


def _cmd_footprint(args: argparse.Namespace) -> int:
    from repro.apps.registry import get_app
    from repro.core.lupine import LupineBuilder
    from repro.core.variants import Variant

    app = get_app(args.app)
    unikernel = LupineBuilder(variant=Variant(args.variant)).build_for_app(app)
    print(f"{unikernel.build.config.name}: "
          f"{unikernel.min_memory_mb()} MB minimum")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.harness import all_experiments

    registry = all_experiments()
    names = list(registry) if args.id == "all" else [args.id]
    for name in names:
        experiment = registry.get(name)
        if experiment is None:
            print(f"unknown experiment {name!r}; known: "
                  f"{', '.join(registry)} or 'all'", file=sys.stderr)
            return 2
        print(experiment.artifact(experiment.run()).text)
        print()
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro.harness import run_experiments
    from repro.metrics.reporting import Table, render_table

    names = args.only.split(",") if args.only else None
    try:
        run = run_experiments(
            names=names,
            output_dir=args.output_dir,
            force=args.cold,
        )
    except KeyError as error:
        # str(KeyError) wraps the message in quotes; print the bare text.
        print(error.args[0] if error.args else str(error), file=sys.stderr)
        return 2

    telemetry = run.telemetry
    summary = Table(
        title=f"harness run: {len(telemetry.experiments)} experiments",
        headers=["experiment", "status", "result cache", "wall ms"],
    )
    for record in telemetry.experiments:
        summary.add_row(
            record.name, record.status,
            "hit" if record.cache_hit else "miss",
            record.wall_ms,
        )
    print(render_table(summary))
    print()
    print(f"result cache : {telemetry.result_cache_hits} hits, "
          f"{telemetry.result_cache_misses} misses "
          f"({telemetry.result_cache_hit_rate:.0%} hit rate)")
    print(f"kernel builds: {telemetry.kernel_builds_performed} performed, "
          f"{telemetry.kernel_builds_reused} reused "
          f"({telemetry.kernel_cache_entries} cached)")
    print(f"total wall   : {telemetry.total_wall_ms:.0f} ms")
    if run.manifest_path is not None:
        print(f"manifest     : {run.manifest_path}")
    if run.trace_path is not None:
        print(f"trace        : {run.trace_path} "
              "(Chrome trace format; open in https://ui.perfetto.dev)")
    if run.metrics_path is not None:
        print(f"metrics      : {run.metrics_path}")
    failed = telemetry.failed_experiments
    if failed:
        print()
        print(f"FAILURES     : {len(failed)} of "
              f"{len(telemetry.experiments)} experiments did not complete",
              file=sys.stderr)
        for record in failed:
            print(f"  [{record.status}] {record.name} "
                  f"(attempt {record.attempts}): {record.error}",
                  file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import pathlib

    from repro.faults.chaos import run_chaos

    names = args.only.split(",") if args.only else None
    output_dir = (
        pathlib.Path(args.output_dir) if args.output_dir is not None else None
    )
    report = run_chaos(
        seed=args.seed,
        names=names,
        output_dir=output_dir,
        runs=args.runs,
    )
    print(report.render())
    return 0 if report.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run one counted benchmark: run, write, summarize, snapshot, check."""
    import importlib
    import json
    import pathlib

    from repro.harness.runner import default_output_dir

    bench = BENCHES[args.bench]
    module = importlib.import_module(bench.module)
    result = module.run_bench()
    output_dir = (
        pathlib.Path(args.output_dir)
        if args.output_dir is not None else default_output_dir()
    )
    targets = [("written", output_dir / bench.result)]
    if args.snapshot is not None:
        targets.append(("snapshot", pathlib.Path(args.snapshot)))
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    for _, path in targets:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    print(module.render_summary(result))
    for label, path in targets:
        print(f"{label:<13}: {path}")
    if args.check:
        failures = module.check_result(result)
        for failure in failures:
            print(f"CHECK FAILED : {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"check        : ok ({bench.ok})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lupine",
        description="Lupine Linux (EuroSys 2020) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("apps", help="list the top-20 applications")
    sub.set_defaults(func=_cmd_apps)

    for name, func, needs_variant in (
        ("build", _cmd_build, True),
        ("boot", _cmd_boot, True),
    ):
        sub = subparsers.add_parser(name, help=f"{name} a Lupine unikernel")
        sub.add_argument("app", help="application name (see 'apps')")
        if needs_variant:
            sub.add_argument(
                "--variant", default="lupine",
                choices=[v.value for v in __import__(
                    "repro.core.variants", fromlist=["Variant"]
                ).Variant],
            )
        sub.set_defaults(func=func)

    sub = subparsers.add_parser("config", help="show a derived kernel config")
    sub.add_argument("app")
    sub.add_argument("--full", action="store_true",
                     help="print the full .config fragment")
    sub.set_defaults(func=_cmd_config)

    sub = subparsers.add_parser("experiment", help="run a paper experiment")
    sub.add_argument("id", help="fig3..fig12, table1/3/4/5, sec5, or 'all'")
    sub.set_defaults(func=_cmd_experiment)

    sub = subparsers.add_parser(
        "run-all",
        help="run all experiments, in order, through the harness "
             "(result cache + run manifest under benchmarks/output/)",
    )
    # Experiments always run in order, in one thread.  The flag stays,
    # accepting only 1, because perfbench/workloads.py invokes
    # `run-all --cold --jobs 1`; any other value exits 2.
    sub.add_argument("--jobs", type=int, default=1, choices=[1],
                     metavar="1",
                     help="accepted for compatibility; only 1 is valid "
                          "(experiments run in order)")
    sub.add_argument("--only", default=None, metavar="ID[,ID...]",
                     help="comma-separated experiment ids (default: all)")
    sub.add_argument("--cold", action="store_true",
                     help="ignore cached results and re-run everything")
    sub.add_argument("--output-dir", default=None, metavar="DIR",
                     help="where outputs, the result cache and the run "
                          "manifest land (default: benchmarks/output/)")
    sub.set_defaults(func=_cmd_run_all)

    sub = subparsers.add_parser(
        "chaos",
        help="run the suite under a seeded fault schedule twice and "
             "assert the resilience invariants (definite statuses, "
             "manifest always written, same seed => identical artifacts)",
    )
    sub.add_argument("--seed", type=int, default=1234, metavar="N",
                     help="fault-schedule seed (default 1234)")
    sub.add_argument("--runs", type=int, default=2, metavar="N",
                     help="identical sub-runs to compare (default 2)")
    sub.add_argument("--only", default=None, metavar="ID[,ID...]",
                     help="comma-separated experiment ids (default: all)")
    sub.add_argument("--output-dir", default=None, metavar="DIR",
                     help="chaos scratch dir "
                          "(default: benchmarks/output/chaos/)")
    sub.set_defaults(func=_cmd_chaos)

    sub = subparsers.add_parser(
        "trace",
        help="trace an app (manifest options) or, with --run/no app, "
             "render the observability report of the last run-all",
    )
    sub.add_argument("app", nargs="?", default=None,
                     help="application name; omit to report on a run")
    sub.add_argument("--counts", action="store_true",
                     help="print per-syscall counts")
    sub.add_argument("--run", action="store_true",
                     help="render the phase/self-time report from "
                          "trace.json + metrics.json")
    sub.add_argument("--top", type=int, default=15, metavar="N",
                     help="rows in the self-time table (default 15)")
    sub.add_argument("--output-dir", default=None, metavar="DIR",
                     help="run output dir (default: benchmarks/output/)")
    sub.set_defaults(func=_cmd_trace)

    sub = subparsers.add_parser(
        "regress",
        help="diff two runs' metrics/manifests; exit 1 past the threshold",
    )
    sub.add_argument("baseline", help="baseline run dir or metrics.json")
    sub.add_argument("current", help="current run dir or metrics.json")
    sub.add_argument("--threshold", type=float, default=0.10)
    sub.add_argument("--min-ms", type=float, default=5.0)
    sub.add_argument("--no-timings", action="store_true")
    sub.set_defaults(func=_cmd_regress)

    for name, bench in BENCHES.items():
        sub = subparsers.add_parser(
            name, help=f"{bench.help} (deterministic counter deltas; "
                       f"writes {bench.result})"
        )
        sub.add_argument("--check", action="store_true",
                         help=f"exit 1 unless {bench.check}")
        sub.add_argument("--snapshot", default=None, metavar="PATH",
                         help="also write the result JSON to PATH (e.g. "
                              f"benchmarks/baseline/{bench.result})")
        sub.add_argument("--output-dir", default=None, metavar="DIR",
                         help=f"where {bench.result} lands "
                              "(default: benchmarks/output/)")
        sub.set_defaults(func=_cmd_bench, bench=name)

    sub = subparsers.add_parser(
        "fleet-serve",
        help="run one traffic-driven serving trace across the fleet "
             "(open-loop arrivals, warm-pool routing, cold boots; "
             "writes serve_report.json)",
    )
    sub.add_argument("--policy", default="scale-to-zero",
                     choices=list(__import__(
                         "repro.traffic.policy", fromlist=["policy_names"]
                     ).policy_names()) + ["all"],
                     help="warm-pool policy preset (default scale-to-zero; "
                          "'all' sweeps every preset as independent runs)")
    sub.add_argument("--trace", default="diurnal",
                     choices=["diurnal", "poisson", "bursty"],
                     help="arrival process (default: the canonical "
                          "diurnal trace)")
    sub.add_argument("--requests", type=int, default=100_000, metavar="N",
                     help="requests in the trace (default 100000)")
    sub.add_argument("--mean-rps", type=float, default=None, metavar="R",
                     help="mean arrival rate (default: canonical trace's)")
    sub.add_argument("--seed", type=int, default=2020, metavar="N",
                     help="arrival/app-mix seed (default 2020)")
    sub.add_argument("--guests", type=int, default=None, metavar="N",
                     help="fleet capacity ceiling (policy max_total "
                          "override, default 1000)")
    sub.add_argument("--idle-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="scale-to-zero idle timeout override "
                          "(<= 0: keep warm guests alive forever)")
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes for --policy all sweeps "
                          "(whole runs fan out; a single run never "
                          "shards -- see docs/SERVING.md)")
    sub.add_argument("--output-dir", default=None, metavar="DIR",
                     help="where serve_report.json lands (per-policy "
                          "serve_report.<policy>.json for --policy all; "
                          "default: benchmarks/output/)")
    sub.add_argument("--chaos", action="store_true",
                     help="serve under the stock guest-fault schedule "
                          "(crash/hang/boot-fail/arrival; the report "
                          "gains nonzero availability counters)")
    sub.add_argument("--chaos-seed", type=int, default=77, metavar="N",
                     help="fault-schedule seed for --chaos (default 77)")
    sub.add_argument("--record-usage", action="store_true",
                     help="attach a usage recorder to every guest; the "
                          "report gains a per-app usage section feeding "
                          "trace-driven derivation (see "
                          "docs/SPECIALIZATION.md)")
    sub.set_defaults(func=_cmd_fleet_serve)

    sub = subparsers.add_parser(
        "derive",
        help="derive an app config from its recorded usage trace and "
             "diff it against the curated one (see "
             "docs/SPECIALIZATION.md)",
    )
    sub.add_argument("--app", default=None, metavar="APP",
                     help="derive for one app (default: all top-20)")
    sub.add_argument("--defconfig", action="store_true",
                     help="also print the minimized request as "
                          "CONFIG_*=y defconfig lines")
    sub.set_defaults(func=_cmd_derive)

    sub = subparsers.add_parser(
        "diff",
        help="diff two kernel configs (microvm, lupine-base, "
             "lupine-general, or any app name)",
    )
    sub.add_argument("left")
    sub.add_argument("right")
    sub.add_argument("--options", action="store_true",
                     help="list individual option names")
    sub.set_defaults(func=_cmd_diff)

    sub = subparsers.add_parser(
        "selfcheck", help="verify the paper-exact structural invariants"
    )
    sub.set_defaults(func=_cmd_selfcheck)

    sub = subparsers.add_parser(
        "dmesg", help="boot an app and print the kernel console"
    )
    sub.add_argument("app")
    sub.add_argument("--variant", default="lupine")
    sub.set_defaults(func=_cmd_dmesg)

    sub = subparsers.add_parser(
        "lmbench", help="run the full lmbench suite (Table 5)"
    )
    sub.set_defaults(func=_cmd_lmbench)

    sub = subparsers.add_parser(
        "footprint", help="measure an app's minimum guest memory"
    )
    sub.add_argument("app")
    sub.add_argument("--variant", default="lupine")
    sub.set_defaults(func=_cmd_footprint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
