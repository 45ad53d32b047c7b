"""The ``bench-derive`` microbenchmark: the Loupe loop, counted and pinned.

Runs the full trace-driven specialization pipeline for every curated
application profile (the paper's top-20): record the app's usage under a
:class:`~repro.syscall.usage.UsageTrace`, derive a configuration from
the observation (:mod:`repro.kconfig.derive`), minimize the request set,
and audit the result against the curated config.

The emitted JSON is shaped like ``metrics.json`` (``counters`` /
``gauges`` / ``digests`` / ``histograms``); the checked-in snapshot
lives at ``benchmarks/baseline/BENCH_derive.json``.  ``check_result``
enforces the acceptance criteria:

- **coverage**: every derived config covers 100% of its recorded usage
  (every observed syscall dispatches, every implied option is enabled);
- **bounded ratio**: each derived config's enabled-option count is at
  most :data:`MAX_OPTION_RATIO` times its curated counterpart's;
- **determinism**: the whole pipeline runs twice per app and the
  per-app and whole-report digests must be byte-identical.

Counters are work deltas (resolver work during the derive loop), never
wall-clock, so the document is byte-stable across machines.  Apps run
in order, in-process, and each is hermetic -- caches reset and the
shared fixpoints (lupine-base, microvm) re-warmed before its counters
are measured -- so each app's delta is a constant, independent of the
apps before it, and the loop total is their sum.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from repro.observe import METRICS

#: Acceptance ceiling: derived enabled-option count over curated.
MAX_OPTION_RATIO = 1.5

_WORK_COUNTERS = (
    "kconfig.resolutions",
    "kconfig.resolve.visited_options",
    "kconfig.expr.evals",
)


def _derive_one(app_name: str, tree: Any) -> Dict[str, Any]:
    """One app through the loop, twice (the rerun determinism probe)."""
    from repro.apps.registry import get_app
    from repro.core.specialization import app_config
    from repro.core.tracing import usage_trace_for_app
    from repro.kconfig.derive import derivation_report

    app = get_app(app_name)
    trace = usage_trace_for_app(app)
    report = derivation_report(trace, tree)
    rerun = derivation_report(usage_trace_for_app(app), tree)
    curated_options = len(app_config(app, tree).enabled)
    return {
        "app": app_name,
        "usage_digest": report.usage_digest,
        "config_digest": report.config_digest,
        "rerun_usage_digest": rerun.usage_digest,
        "rerun_config_digest": rerun.config_digest,
        "extras": list(report.extras),
        "request_size": len(report.request),
        "option_count": report.option_count,
        "curated_option_count": curated_options,
        "option_ratio": round(report.option_count / curated_options, 6),
        "covers": report.covers,
        "recorded_calls": trace.call_count,
        "recorded_syscalls": len(trace.syscalls),
    }


def _report_digest(rows: List[Dict[str, Any]], key: str) -> str:
    payload = json.dumps(
        [[row["app"], row[key], row["extras"]] for row in rows],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def run_bench() -> Dict[str, Any]:
    """Run the derive loop for all curated apps; metrics-shaped result."""
    from repro.apps.registry import TOP20_APPS
    from repro.core.buildcache import BUILD_CACHE
    from repro.kconfig.configs import lupine_base_config, microvm_config
    from repro.kconfig.database import build_linux_tree
    from repro.kconfig.rescache import RESOLUTION_CACHE

    # Start cold and count what warming the shared fixpoints costs.
    RESOLUTION_CACHE.reset()
    BUILD_CACHE.reset()
    tree = build_linux_tree()
    _, prewarm = METRICS.measure(
        lambda: (lupine_base_config(tree), microvm_config(tree)),
        _WORK_COUNTERS,
    )

    rows: List[Dict[str, Any]] = []
    loop = dict.fromkeys(_WORK_COUNTERS, 0)
    for app in TOP20_APPS:
        # Hermetic: reset the caches and re-warm the shared fixpoints
        # before measuring, so this app's delta is a constant whatever
        # ran before it.
        RESOLUTION_CACHE.reset()
        BUILD_CACHE.reset()
        tree = build_linux_tree()
        lupine_base_config(tree)
        microvm_config(tree)
        row, deltas = METRICS.measure(lambda: _derive_one(app.name, tree),
                                      _WORK_COUNTERS)
        rows.append(row)
        for name, value in deltas.items():
            loop[name] += value

    counters = {
        f"{metric}.prewarm": value for metric, value in prewarm.items()
    }
    counters.update(
        {f"{metric}.derive_loop": value for metric, value in loop.items()}
    )
    digests: Dict[str, str] = {}
    for row in rows:
        digests[f"derive.usage_digest48.{row['app']}"] = (
            row["usage_digest"][:12]
        )
        digests[f"derive.config_digest48.{row['app']}"] = (
            row["config_digest"][:12]
        )
    digests["derive.report_digest48.all"] = (
        _report_digest(rows, "config_digest")[:12]
    )
    digests["derive.report_digest48.all.rerun"] = (
        _report_digest(
            [
                {**row, "config_digest": row["rerun_config_digest"]}
                for row in rows
            ],
            "config_digest",
        )[:12]
    )
    ratios = [row["option_ratio"] for row in rows]
    return {
        "counters": counters,
        "gauges": {
            "derive.bench_apps": float(len(rows)),
            "derive.covered_apps": float(
                sum(1 for row in rows if row["covers"])
            ),
            "derive.max_option_ratio": round(max(ratios), 6),
            "derive.extra_options_total": float(
                sum(len(row["extras"]) for row in rows)
            ),
            "derive.request_options_total": float(
                sum(row["request_size"] for row in rows)
            ),
            "derive.recorded_calls_total": float(
                sum(row["recorded_calls"] for row in rows)
            ),
        },
        "digests": digests,
        "histograms": {},
        "apps": rows,
    }


def check_result(result: Dict[str, Any]) -> List[str]:
    """Return acceptance-criterion violations ([] when the result passes)."""
    failures: List[str] = []
    rows = result.get("apps", [])
    if not rows:
        return ["no per-app derivation rows in result"]
    for row in rows:
        app = row["app"]
        if not row["covers"]:
            failures.append(
                f"{app}: derived config does not cover its recorded usage"
            )
        if row["option_ratio"] > MAX_OPTION_RATIO:
            failures.append(
                f"{app}: derived/curated option ratio "
                f"{row['option_ratio']:.3f} exceeds {MAX_OPTION_RATIO}"
            )
        if row["usage_digest"] != row["rerun_usage_digest"]:
            failures.append(f"{app}: usage recording is not deterministic")
        if row["config_digest"] != row["rerun_config_digest"]:
            failures.append(f"{app}: derived config is not deterministic")
    digests = result.get("digests", {})
    if digests.get("derive.report_digest48.all") != digests.get(
        "derive.report_digest48.all.rerun"
    ):
        failures.append("whole-report rerun digest mismatch")
    return failures


def render_summary(result: Dict[str, Any]) -> str:
    """Human-readable per-app table for the CLI."""
    lines = [
        f"{'app':<14} {'extras':>6} {'request':>7} {'options':>7} "
        f"{'ratio':>6} {'covers':>6}  config digest"
    ]
    for row in result["apps"]:
        lines.append(
            f"{row['app']:<14} {len(row['extras']):>6} "
            f"{row['request_size']:>7} {row['option_count']:>7} "
            f"{row['option_ratio']:>6.3f} "
            f"{'yes' if row['covers'] else 'NO':>6}  "
            f"{row['config_digest'][:12]}"
        )
    gauges = result["gauges"]
    lines.append(
        f"apps: {gauges['derive.bench_apps']:g}, "
        f"covered: {gauges['derive.covered_apps']:g}, "
        f"max ratio: {gauges['derive.max_option_ratio']:g}"
    )
    return "\n".join(lines)
