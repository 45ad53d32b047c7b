"""The ``bench-resolve`` microbenchmark: resolver work, counted.

Measures the deterministic *work counters* of the resolver over the
paper's 20 application configurations, in three scenarios plus the
shared base cost:

- ``cold_worklist``  -- 20 cold resolutions, bypassing the cache;
- ``warm_base``      -- one cold worklist resolution of ``lupine-base``
  (the fixpoint all warm derivations share);
- ``warm_delta``     -- the 20 app configs derived warm from that base
  via ``Resolver.resolve_from`` (the production path);
- ``cache_hit``      -- the 20 app configs served from the process-wide
  resolution cache (zero resolution work).

Everything reported is a counter *delta* (visited options, expression
evaluations, resolutions performed) -- no wall-clock -- so the output is
byte-stable across machines and directly comparable by the ``regress``
gate.  The emitted JSON is shaped exactly like ``metrics.json``
(``counters`` / ``gauges`` / ``histograms``), with per-scenario counter
names such as ``kconfig.resolve.visited_options.warm_delta``; the
checked-in snapshot lives at ``benchmarks/baseline/BENCH_resolve.json``.

``check_result`` enforces the headline acceptance claim: warm-start
derivation of all 20 variants must visit at least
:data:`MIN_COLD_OVER_WARM_RATIO` times fewer options than the 20 cold
resolutions, and cache hits must visit none at all.  A document missing any
scenario's counters, or the ``bench_apps`` gauge, fails outright.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.observe import METRICS

#: The acceptance floor: cold resolutions must visit at least this many
#: times more options than the warm per-app derivations.
MIN_COLD_OVER_WARM_RATIO = 10.0

_WORK_COUNTERS = (
    "kconfig.resolutions",
    "kconfig.resolve.visited_options",
    "kconfig.expr.evals",
    "kconfig.resolve.cache_hits",
    "kconfig.resolve.cache_misses",
)

#: Scenario sections, in run order.
SCENARIOS = ("cold_worklist", "warm_base", "warm_delta", "cache_hit")


def run_bench() -> Dict[str, Any]:
    """Run every scenario and return the metrics-shaped result document."""
    from repro.apps.registry import TOP20_APPS
    from repro.core.specialization import app_config_names
    from repro.kconfig.database import base_option_names, build_linux_tree
    from repro.kconfig.rescache import RESOLUTION_CACHE
    from repro.kconfig.resolver import Resolver

    tree = build_linux_tree()
    request_sets: List[Tuple[str, List[str]]] = [
        (app.name, app_config_names(app)) for app in TOP20_APPS
    ]
    worklist = Resolver(tree)
    sections: Dict[str, Dict[str, int]] = {}

    _, sections["cold_worklist"] = METRICS.measure(lambda: [
        worklist.resolve_names(
            names, name=f"bench-cold-{app}", use_cache=False
        )
        for app, names in request_sets
    ], _WORK_COUNTERS)

    base, sections["warm_base"] = METRICS.measure(
        lambda: worklist.resolve_names(
            base_option_names(), name="lupine-base", use_cache=False
        ),
        _WORK_COUNTERS,
    )
    _, sections["warm_delta"] = METRICS.measure(lambda: [
        worklist.resolve_names_from(
            base, names, name=f"bench-warm-{app}", use_cache=False
        )
        for app, names in request_sets
    ], _WORK_COUNTERS)

    # The cache scenario owns the cache: start it empty, populate with the
    # 20 app resolutions (misses), then measure the second round (hits).
    RESOLUTION_CACHE.reset()
    for app, names in request_sets:
        worklist.resolve_names(names, name=f"bench-cached-{app}")
    _, sections["cache_hit"] = METRICS.measure(lambda: [
        worklist.resolve_names(names, name=f"bench-cached-{app}")
        for app, names in request_sets
    ], _WORK_COUNTERS)

    counters = {
        f"{metric}.{section}": value
        for section, deltas in sections.items()
        for metric, value in deltas.items()
    }
    warm = counters["kconfig.resolve.visited_options.warm_delta"]
    cold = counters["kconfig.resolve.visited_options.cold_worklist"]
    ratio = cold / warm if warm else float("inf")
    return {
        "counters": counters,
        "gauges": {
            "kconfig.resolve.bench_apps": float(len(request_sets)),
            "kconfig.resolve.cold_over_warm_visited_ratio": round(ratio, 2),
        },
        "histograms": {},
    }


def check_result(result: Dict[str, Any]) -> List[str]:
    """Return acceptance-criterion violations ([] when the result passes)."""
    counters = result.get("counters", {})
    apps = result.get("gauges", {}).get("kconfig.resolve.bench_apps")
    missing = [
        f"{metric}.{section}"
        for section in SCENARIOS for metric in _WORK_COUNTERS
        if f"{metric}.{section}" not in counters
    ]
    if apps is None:
        missing.append("kconfig.resolve.bench_apps")
    if missing:
        return [f"result is missing {len(missing)} entries, e.g. "
                f"{missing[0]}; every scenario must report"]
    failures: List[str] = []
    warm = counters["kconfig.resolve.visited_options.warm_delta"]
    cold = counters["kconfig.resolve.visited_options.cold_worklist"]
    if warm <= 0:
        failures.append(
            f"warm-start derivation visited {warm} options; the warm_delta "
            "scenario did no resolution work"
        )
    elif cold / warm < MIN_COLD_OVER_WARM_RATIO:
        failures.append(
            f"warm-start derivation visited only {cold / warm:.1f}x fewer "
            f"options than cold resolutions ({cold} vs {warm}); "
            f"need >= {MIN_COLD_OVER_WARM_RATIO:.0f}x"
        )
    hit_visited = counters["kconfig.resolve.visited_options.cache_hit"]
    if hit_visited != 0:
        failures.append(
            f"cache-hit resolutions visited {hit_visited} options; "
            "hits must do no resolution work"
        )
    hits = counters["kconfig.resolve.cache_hits.cache_hit"]
    if hits != int(apps):
        failures.append(
            f"expected {int(apps)} resolution-cache hits, observed {hits}"
        )
    return failures


def render_summary(result: Dict[str, Any]) -> str:
    """Human-readable scenario table for the CLI."""
    counters = result["counters"]
    lines = [
        f"{'scenario':<14} {'resolutions':>11} {'visited':>9} {'evals':>9}"
    ]
    for section in SCENARIOS:
        lines.append(
            f"{section:<14} "
            f"{counters[f'kconfig.resolutions.{section}']:>11} "
            f"{counters[f'kconfig.resolve.visited_options.{section}']:>9} "
            f"{counters[f'kconfig.expr.evals.{section}']:>9}"
        )
    ratio = result["gauges"]["kconfig.resolve.cold_over_warm_visited_ratio"]
    lines.append(f"cold/warm visited ratio: x{ratio:g}")
    return "\n".join(lines)
