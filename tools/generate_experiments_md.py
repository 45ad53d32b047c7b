#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-reported vs measured, per experiment.

Run: ``python tools/generate_experiments_md.py`` (writes EXPERIMENTS.md
into the current directory).  Experiment execution goes through the
harness (``repro.harness``), so results come from the shared result
cache when inputs are unchanged; pass ``--cold`` to force a full re-run.
"""

from __future__ import annotations

import argparse
import io
import pathlib
import sys

# Bootstrap: make ``repro`` importable no matter the caller's cwd or
# PYTHONPATH -- the package lives in <repo>/src next to this script.
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments import (  # noqa: E402
    fig9_syscalls,
    fig12_ctxsw,
    sec5_smp,
    table4_apps,
)
from repro.harness import run_experiments  # noqa: E402

#: The experiments this document compares against the paper, in order.
EXPERIMENT_IDS = [
    "fig3", "fig4", "table3", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "table4", "fig11", "fig12", "sec5", "table5",
]

#: Values as reported in the paper (EuroSys 2020).  Used only for the
#: comparison columns here -- the library never reads them.
PAPER = {
    "fig6": {"microvm-fraction-lupine": 0.27, "tiny-shrink": 0.06,
             "general-upper": 0.33},
    "fig7": {"microvm": 56.0, "lupine-nokml": 23.0, "noparavirt": 71.0,
             "general-delta": 2.0},
    "fig8": {"microvm": 29.0, "lupine": 21.0},
    "fig9": {"specialization-write": 0.56, "kml-null": 0.40},
    "fig10": {"at0": 0.40, "at160": 0.05},
    "table4": {
        "lupine": (1.21, 1.22, 1.33, 1.14),
        "lupine-general": (1.19, 1.20, 1.29, 1.15),
        "lupine-tiny": (1.15, 1.16, 1.23, 1.11),
        "lupine-nokml": (1.20, 1.21, 1.29, 1.16),
        "lupine-nokml-tiny": (1.13, 1.13, 1.21, 1.12),
        "hermitux": (0.66, 0.67, None, None),
        "osv": (0.87, 0.53, None, None),
        "rump": (0.99, 0.99, 1.25, 0.53),
    },
    "sec5": {"sem_posix": 0.03, "futex": 0.08, "make-j": 0.03},
    "fig12": {"max-penalty": 0.03},
}


def _fmt(value, digits=2):
    if value is None:
        return "N/A"
    return f"{value:.{digits}f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cold", action="store_true",
                        help="ignore the result cache and re-run everything")
    args = parser.parse_args(argv)

    harness_run = run_experiments(
        names=EXPERIMENT_IDS, force=args.cold,
        write_outputs=False,
    )
    results = harness_run.results

    out = io.StringIO()
    w = out.write
    w("# EXPERIMENTS — paper-reported vs measured\n\n")
    w("Generated by `python tools/generate_experiments_md.py`. ")
    w("All measurements are deterministic simulations (see DESIGN.md §2); ")
    w("the goal is matching the paper's *shape* — who wins, by roughly what "
      "factor — not its absolute testbed numbers.\n\n")
    w("Regenerate any row's raw data with "
      "`repro-lupine experiment <id>`, or every row with "
      "`repro-lupine run-all` (rendered copies land in "
      "`benchmarks/output/`).\n\n")

    # -- how to run ------------------------------------------------------------
    w("## Running the experiments\n\n")
    w("All experiments run through the harness (`repro.harness`):\n\n")
    w("```\npython -m repro.cli run-all\n```\n\n")
    w("- Experiments run one after another, in registry order, in one "
      "thread; results and outputs land in that order.\n")
    w("- Kernel builds are shared through a process-wide content-addressed "
      "build cache; the run manifest (`benchmarks/output/run_manifest.json`) "
      "reports builds performed vs. reused.\n")
    w("- Finished results are cached on disk under "
      "`benchmarks/output/result-cache/`, keyed on each experiment's inputs "
      "fingerprint (a hash of its source and everything it imports). A warm "
      "re-run with unchanged inputs executes nothing and reproduces "
      "byte-identical outputs.\n")
    w("- Force a cold run with `python -m repro.cli run-all --cold`, or "
      "delete `benchmarks/output/result-cache/`.\n")
    w("- Every run also writes `trace.json` (Chrome trace-event spans; "
      "open in Perfetto or render with `repro-lupine trace`) and "
      "`metrics.json` (counter/gauge/histogram snapshot) beside the "
      "manifest; `repro-lupine regress BASELINE CURRENT` compares two "
      "runs and exits nonzero on a regression. See "
      "docs/OBSERVABILITY.md.\n\n")

    # -- run manifest schema ---------------------------------------------------
    w("## Run manifest schema\n\n")
    w("`run-all` writes `run_manifest.json` (schema_version 3) describing "
      "what the run cost — and how every experiment ended. The manifest "
      "always lands, even when experiments fail: a partial run still "
      "produces a complete record. Top-level fields:\n\n")
    w("| Field | Meaning |\n|---|---|\n")
    w("| `schema_version` | manifest format version (currently 3; v2 "
      "added per-experiment `status`/`attempts`/`error` and the "
      "top-level `failures` count; v3 dropped `jobs` and "
      "`effective_jobs`) |\n")
    w("| `total_wall_ms` | wall time of the whole harness run |\n")
    w("| `experiments[]` | per-experiment records (below), in registry "
      "order |\n")
    w("| `failures` | experiments whose final status is not "
      "`ok`/`cache_hit` |\n")
    w("| `result_cache.hits` / `.misses` | on-disk result-cache outcomes "
      "across the run |\n")
    w("| `result_cache.hit_rate` | hits / experiments (0.0 on an empty "
      "run) |\n")
    w("| `kernel_builds.performed` | kernel builds actually executed "
      "(build-cache misses) |\n")
    w("| `kernel_builds.reused` | builds satisfied by the process-wide "
      "build cache |\n")
    w("| `kernel_builds.cache_entries` | distinct kernels resident in the "
      "build cache |\n\n")
    w("Each `experiments[]` entry:\n\n")
    w("| Field | Meaning |\n|---|---|\n")
    w("| `name` | experiment id (e.g. `fig7`) |\n")
    w("| `fingerprint` | hash of the experiment's transitive source "
      "inputs (its module plus every `repro.*` module it imports); the "
      "result-cache key |\n")
    w("| `cache_hit` | whether this run reused the cached result |\n")
    w("| `wall_ms` | wall time this experiment took (≈0 on a cache "
      "hit), including any one-time process cost it is the first to "
      "need: in a fresh `run-all` process `fig3` pays for the first "
      "`build_linux_tree()` (0.1–0.2 s on a 2-core Xeon) |\n")
    w("| `status` | `ok` \\| `cache_hit` \\| `failed` \\| `timed_out` — "
      "the experiment's definite final state (see docs/RESILIENCE.md) |\n")
    w("| `attempts` | execution attempts (>1 when transient faults were "
      "retried) |\n")
    w("| `error` | `ErrorType: message` for `failed`/`timed_out`; "
      "null otherwise |\n\n")
    w("A fully-warm run therefore shows `result_cache.misses == 0` and "
      "`kernel_builds.performed == 0`; the CI gate "
      "(`python -m repro.observe.regress benchmarks/baseline <run> "
      "--no-timings`) holds exactly that line. `run-all` itself exits "
      "nonzero (with a failure summary) when any experiment's final "
      "status is not `ok`/`cache_hit`, and the chaos gate "
      "(`repro-lupine chaos`) asserts the manifest invariants under a "
      "seeded fault schedule.\n\n")

    # -- serving report schema -------------------------------------------------
    w("## Serving report schema\n\n")
    w("`repro-lupine fleet-serve` writes `serve_report.json` "
      "(schema_version 2; v2 added the `resilience` and `availability` "
      "sections and `guests.failed`): the canonical manifest of one "
      "traffic-driven serving run (see docs/SERVING.md for the "
      "mechanism). A `ServeSpec` fully determines the manifest — same "
      "seed ⇒ byte-identical SHA-256 digest under every warm-pool "
      "policy, with or without an installed fault schedule; "
      "`bench-serve --check` and the regress gate against "
      "`benchmarks/baseline/BENCH_serve.json` enforce that in "
      "`tools/check.sh`. Fields:\n\n")
    w("| Field | Meaning |\n|---|---|\n")
    w("| `schema_version` | serving-report format version (currently "
      "2) |\n")
    w("| `trace` | the arrival `TraceSpec` (kind, request count, rate "
      "parameters, Zipf skew) |\n")
    w("| `policy` | the `WarmPoolPolicy` (idle timeout, min/max pools, "
      "pre-warm) |\n")
    w("| `resilience` | the `ResiliencePolicy` (watchdog, retry budget, "
      "backoff, quarantine, breaker, shedding knobs — see "
      "docs/RESILIENCE.md) |\n")
    w("| `seed` / `kernel_policy` / `kml` | the remaining `ServeSpec` "
      "inputs |\n")
    w("| `served` / `dropped` / `clamped` | requests completed, dropped "
      "by an injected fault, and arrivals clamped forward by an injected "
      "hang |\n")
    w("| `availability` | arrivals, failed/shed (+ per-reason "
      "breakdowns), error/shed rates, retries, restarts, guest "
      "crash/hang/boot-failure counts, watchdog kills, quarantines, "
      "breaker opens, goodput_rps |\n")
    w("| `cold_starts` / `cold_start_fraction` | requests whose latency "
      "includes a full build+boot |\n")
    w("| `latency_ms.p50/.p99/.p999/.max/.mean` | nearest-rank "
      "percentiles of completion − arrival, in ms, conditional on "
      "success |\n")
    w("| `queue.high_water` | deepest any per-app FIFO backlog got |\n")
    w("| `queue.queued_requests` | requests that waited in a backlog |\n")
    w("| `guests.spawned` / `.retired` / `.failed` / `.peak_live` | "
      "guest churn (cold boots, idle-timeout retirements, fault deaths, "
      "peak concurrency) |\n")
    w("| `guests.guest_seconds` | total guest lifetime — the cost side "
      "of the keepalive tradeoff |\n")
    w("| `per_app` | per-application requests / cold starts / spawns |\n\n")
    w("Execution counters (`eventcore.*`, `traffic.*` in "
      "`metrics.json`) stay outside the manifest: the digest pins "
      "*what was served*, not how the event loop scheduled it. The "
      "conservation identity "
      "`availability.arrivals == served + availability.failed + "
      "availability.shed + dropped` holds in every manifest.\n\n")

    # -- benchmark result documents -------------------------------------------
    w("## Benchmark result documents\n\n")
    w("The microbenchmarks (`bench-resolve`, `bench-guests`, "
      "`bench-serve`, `bench-derive`) each write a JSON result with "
      "four sections: "
      "`counters` (monotonic work deltas — boots, resolutions, events "
      "dispatched), `gauges` (point measurements — fleet sizes, "
      "latency percentiles), `digests` (manifest digest48 identities), "
      "and `histograms`. The `regress` gate compares cost counters "
      "with a growth threshold but pins every `digests` entry by "
      "**exact equality** — a digest is an identity, not a quantity, "
      "so a one-bit drift fails the gate, and so does a pinned digest "
      "the current run no longer emits. All digests are hash-seed "
      "independent (config-option float folds iterate sorted), so no "
      "`PYTHONHASHSEED` pin appears in `tools/check.sh`.\n\n")
    w("`bench-guests` sections (`BENCH_guests.json`):\n\n")
    w("| Section | Fleet |\n|---|---|\n")
    w("| `fleet_general` | 1000 guests, shared general kernel |\n")
    w("| `fleet_per_app` | 200 guests, one kernel per app |\n")
    w("| `fleet_general_tenk` | 10,000 guests, shared general kernel |"
      "\n\n")
    w("Every fleet runs through the cohort fold (one simulated "
      "representative per app, members replayed), and each must report "
      "`build_count` equal to `distinct_kernels`. Tier-1 "
      "(`tests/test_shard_fleet.py`) checks that the sequential "
      "per-guest loop reproduces the pinned `fleet_general` and "
      "`fleet_per_app` digests.\n\n")
    w("`tools/check.sh` runs `bench-guests --check` and regresses it "
      "against the pinned baseline (see docs/GUEST_RUNTIME.md \"Fleet "
      "simulation\").\n\n")
    w("`bench-serve` sections (`BENCH_serve.json`), each the canonical "
      "100k-request diurnal trace, run twice:\n\n")
    w("| Section | Run | Rerun |\n|---|---|---|\n")
    w("| `serve_scale_to_zero` | scale-to-zero, no fault plane | under "
      "an installed empty fault plane |\n")
    w("| `serve_fixed_pool` | fixed pool, no fault plane | under an "
      "installed empty fault plane |\n")
    w("| `serve_chaos_scale_to_zero` | scale-to-zero, stock fault "
      "schedule (seed 77) | two-worker `run_serving_many` sweep, same "
      "schedule |\n")
    w("| `serve_chaos_fixed_pool` | fixed pool, stock fault schedule "
      "(seed 77) | two-worker `run_serving_many` sweep, same "
      "schedule |\n\n")
    w("Each `.rerun` digest must equal its run's: rerun determinism, "
      "an invisible empty plane, and fan-out equivalence in one "
      "comparison. Counters count each section's first run.\n\n")
    w("`bench-derive` (`BENCH_derive.json`, see "
      "docs/SPECIALIZATION.md) runs the trace-driven specialization "
      "loop — record each top-20 app's usage, derive a config from the "
      "observation, minimize and audit it — twice per app:\n\n")
    w("| Entry | Meaning |\n|---|---|\n")
    w("| `counters` `kconfig.*.prewarm` / `.derive_loop` | resolver "
      "work to warm the shared fixpoints vs the per-app derive loop "
      "(each app hermetic: caches reset and fixpoints re-warmed first) "
      "|\n")
    w("| `digests` `derive.usage_digest48.<app>` | the recorded usage "
      "trace (counts, misses, facilities), canonical-JSON sha256 |\n")
    w("| `digests` `derive.config_digest48.<app>` | the derived "
      "config's sorted enabled-option content (label-independent) |\n")
    w("| `digests` `derive.report_digest48.all` / `.all.rerun` | "
      "whole-report digest over both passes — rerun equality is the "
      "determinism contract |\n")
    w("| `gauges` `derive.max_option_ratio` | worst derived/curated "
      "enabled-option ratio (ceiling 1.5, gated) |\n")
    w("| `apps[]` | per-app rows: extras beyond lupine-base, minimized "
      "request size, option counts and ratio, coverage verdict, "
      "recorded call/syscall counts |\n\n")
    w("`bench-derive --check` fails unless every derived config covers "
      "100% of its recorded usage, stays within the 1.5× option "
      "ratio, and reproduces its digests across both in-bench passes; "
      "`tools/check.sh` regresses the run against the pinned "
      "`benchmarks/baseline/BENCH_derive.json`.\n\n")

    # -- structural results (exact by construction) ---------------------------
    w("## Exact structural reproductions\n\n")
    fig3 = results["fig3"]
    w("| Experiment | Paper | Measured |\n|---|---|---|\n")
    w(f"| Fig. 3 total options (Linux 4.0) | 15,953 | "
      f"{sum(fig3['total'].values()):,} |\n")
    w(f"| Fig. 3 microVM options | 833 | {sum(fig3['microvm'].values())} |\n")
    w(f"| Fig. 3 lupine-base options | 283 | "
      f"{sum(fig3['lupine-base'].values())} |\n")
    fig4 = results["fig4"]
    w(f"| Fig. 4 removed: application-specific | 311 | {fig4['app']} |\n")
    w(f"| Fig. 4 removed: multiple processes | 89 | {fig4['mp']} |\n")
    w(f"| Fig. 4 removed: HW management | 150 | {fig4['hw']} |\n")
    w("| Table 1 option→syscall rows | 12 | 12 (verbatim) |\n")
    table3 = results["table3"]
    w(f"| Table 3 per-app option counts | nginx 13 … elasticsearch 12 | "
      f"all 20 exact (e.g. nginx {table3['nginx']}) |\n")
    growth = results["fig5"]
    w(f"| Fig. 5 option-union growth | 13 → 19, flattening | "
      f"{growth[0]} → {growth[-1]}, flattening |\n\n")

    # -- fig 6 -----------------------------------------------------------------
    w("## Figure 6 — image size (hello world)\n\n")
    fig6 = results["fig6"]
    fraction = fig6["lupine"] / fig6["microvm"]
    tiny_shrink = 1 - fig6["lupine-tiny"] / fig6["lupine"]
    general_fraction = fig6["lupine-general"] / fig6["microvm"]
    w("| Metric | Paper | Measured |\n|---|---|---|\n")
    w(f"| lupine / microVM | 27% | {fraction:.0%} |\n")
    w(f"| -tiny shrink | ~6% | {tiny_shrink:.0%} |\n")
    w(f"| lupine-general / microVM (upper bound) | ≤33% | "
      f"{general_fraction:.0%} |\n")
    w(f"| lupine-general < OSv, Rump | yes | "
      f"{fig6['lupine-general'] < fig6['osv'] < fig6['rump']} |\n")
    w("| absolute sizes (MB) | microVM ~14.5, lupine ~4 | "
      f"microVM {fig6['microvm']:.1f}, lupine {fig6['lupine']:.1f}, "
      f"hermitux {fig6['hermitux']:.1f}, osv {fig6['osv']:.1f}, "
      f"rump {fig6['rump']:.1f} |\n\n")

    # -- fig 7 ----------------------------------------------------------------
    w("## Figure 7 — boot time (hello world)\n\n")
    fig7 = results["fig7"]
    w("| System | Paper (ms) | Measured (ms) |\n|---|---|---|\n")
    rows = [("microvm", 56), ("lupine-nokml", 23),
            ("lupine-kml-noparavirt", 71),
            ("osv-rofs", "~5-13 (10x better than zfs)"),
            ("osv-zfs", "10x osv-rofs"), ("hermitux", "> lupine-general"),
            ("rump", "comparable")]
    for system, paper_value in rows:
        w(f"| {system} | {paper_value} | {fig7[system]:.1f} |\n")
    delta = fig7["lupine-nokml-general"] - fig7["lupine-nokml"]
    w(f"| lupine-general extra | +2 | +{delta:.1f} |\n\n")

    # -- fig 8 ----------------------------------------------------------------
    w("## Figure 8 — memory footprint (MB)\n\n")
    fig8 = results["fig8"]
    w("| System | hello | nginx | redis | Paper notes |\n|---|---|---|---|---|\n")
    notes = {
        "microvm": "~29, flat across apps",
        "lupine": "~21, flat across apps",
        "lupine-general": "≈ lupine",
        "hermitux": "no nginx; large redis",
        "osv": "nginx == hello (dynamic loading); large redis",
        "rump": "varies per app",
    }
    for system, row in fig8.items():
        w(f"| {system} | {_fmt(row['hello-world'], 0)} | "
          f"{_fmt(row['nginx'], 0)} | {_fmt(row['redis'], 0)} | "
          f"{notes.get(system, '')} |\n")
    w("\n")

    # -- fig 9 / 10 --------------------------------------------------------------
    w("## Figures 9 & 10 — system call latency\n\n")
    fig9 = results["fig9"]
    w("| Metric | Paper | Measured |\n|---|---|---|\n")
    w(f"| specialization gain, write (microVM→nokml) | up to 56% | "
      f"{fig9_syscalls.specialization_improvement(fig9):.0%} |\n")
    w(f"| KML gain, null (nokml→lupine) | 40% | "
      f"{fig9_syscalls.kml_improvement(fig9):.0%} |\n")
    w(f"| lupine == lupine-general | yes | "
      f"{abs(fig9['lupine']['null'] - fig9['lupine-general']['null']) < 1e-3} |\n")
    w(f"| OSv hardcoded getppid | ~0 | {fig9['osv']['null']:.3f} µs |\n")
    w(f"| OSv /dev/zero read | clipped (.19) | {fig9['osv']['read']:.2f} µs |\n")
    points = dict(results["fig10"])
    w(f"| Fig. 10 KML gain at 0 iterations | 40% | {points[0]:.0%} |\n")
    w(f"| Fig. 10 KML gain at 160 iterations | <5% | {points[160]:.1%} |\n\n")

    # -- table 4 -----------------------------------------------------------------
    w("## Table 4 — application performance (normalized to microVM)\n\n")
    table4 = results["table4"]
    w("| System | redis-get | redis-set | nginx-conn | nginx-sess |\n")
    w("|---|---|---|---|---|\n")
    for system, paper_row in PAPER["table4"].items():
        measured = table4[system]
        cells = []
        for column, paper_value in zip(table4_apps.COLUMNS, paper_row):
            cells.append(
                f"{_fmt(measured[column])} (paper {_fmt(paper_value)})"
            )
        w(f"| {system} | " + " | ".join(cells) + " |\n")
    w("\n")

    # -- figs 11/12, sec 5 ----------------------------------------------------------
    w("## Beyond unikernels (Section 5)\n\n")
    series = results["fig11"]
    spreads = []
    for name, points_list in series.items():
        values = [v for _, v in points_list]
        spreads.append((max(values) - min(values)) / max(values))
    w("| Metric | Paper | Measured |\n|---|---|---|\n")
    w(f"| Fig. 11 latency spread across 1..1024 control procs | within 1 σ | "
      f"max {max(spreads):.1%} |\n")
    w(f"| Fig. 12 worst process-vs-thread penalty | ≤3% | "
      f"{fig12_ctxsw.max_process_penalty(results['fig12']):.1%} |\n")
    sec5 = results["sec5"]
    for workload, bound in (("sem_posix", "≤3%"), ("futex", "≤8%"),
                            ("make-j", "≤3%")):
        worst = max(o for _, o in sec5[workload])
        w(f"| §5 SMP overhead, {workload} | {bound} | {worst:.1%} |\n")
    w(f"| §5 build speedup with 2 CPUs | almost 2x | "
      f"{sec5_smp.dual_cpu_build_speedup():.2f}x |\n\n")

    # -- table 5 -------------------------------------------------------------------
    w("## Table 5 — full lmbench (microVM vs lupine-general)\n\n")
    reports = results["table5"]
    microvm = reports["microvm"]
    general = reports["lupine-general"]
    w("| Op | MicroVM | Lupine-general | unit |\n|---|---|---|---|\n")
    for name in microvm.latencies_us:
        w(f"| {name} | {microvm.latencies_us[name]:.3f} | "
          f"{general.latencies_us[name]:.3f} | µs |\n")
    for name in microvm.bandwidths_mb_s:
        w(f"| {name} | {microvm.bandwidths_mb_s[name]:,.0f} | "
          f"{general.bandwidths_mb_s[name]:,.0f} | MB/s |\n")
    w("\nKnown divergences from the paper's Table 5: the paper reports equal "
      "null-call latency for both systems (0.03 µs) while its own Figure 9 "
      "shows lupine (KML) clearly faster; our model follows Figure 9. "
      "Bandwidth gaps are directionally right but smaller than the paper's "
      "(our per-page hook model undercharges the copy path).\n")

    with open("EXPERIMENTS.md", "w") as handle:
        handle.write(out.getvalue())
    print("wrote EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
