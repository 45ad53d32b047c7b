"""The ``bench-guests`` microbenchmark: fleet simulation cost, counted.

Boots and serves whole fleets through :meth:`Fleet.simulate
<repro.core.orchestrator.Fleet.simulate>` and reports the deterministic
*work counters* the run caused, per kernel policy and execution
strategy:

- ``fleet_general`` -- :data:`GENERAL_GUESTS` guests sharing one
  ``lupine-general`` kernel (the paper's recommended deployment), run
  guest by guest: the sequential differential oracle;
- ``fleet_per_app`` -- :data:`PER_APP_GUESTS` guests on per-app
  specialized kernels (maximum specialization, maximum builds);
- ``fleet_general_cohort`` -- the general fleet again, through the
  cohort-vectorized fold (one simulated representative per app cohort,
  entries replayed per guest).  Its manifest digest must equal
  ``fleet_general``'s;
- ``fleet_general_tenk`` -- :data:`TENK_GUESTS` guests through the
  cohort fold, an order of magnitude past the sequential oracle.

Nothing reported is wall-clock: boot and resolver work are counter
deltas (``boot.boots``, ``kconfig.resolve.*``, ``vmm.guest_checks``).
Host time is what ``perfbench/`` measures.

Manifest digests land in the result's dedicated ``digests`` section
(they are identities, not monotonic counts -- the regress gate compares
them for exact equality), so the gate pins bit-identical fleet
behaviour under both execution strategies.  Digests are hash-seed
independent: every float fold over set-ordered config options iterates
in sorted order, so no ``PYTHONHASHSEED`` pin is needed.  The
checked-in snapshot lives at ``benchmarks/baseline/BENCH_guests.json``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.observe import METRICS

#: Fleet sizes per scenario.  The general fleet is the acceptance-scale
#: run (>= 1000 guests on one shared kernel); the per-app fleet is
#: smaller -- its point is kernel diversity, not scale.  The ten-thousand
#: guest scenario runs an order of magnitude past the sequential oracle.
GENERAL_GUESTS = 1000
PER_APP_GUESTS = 200
TENK_GUESTS = 10_000

#: The PRNG seed every scenario draws its application mix from.
FLEET_SEED = 2020  # EuroSys '20

_WORK_COUNTERS = (
    "boot.boots",
    "vmm.guest_checks",
    "kconfig.resolutions",
    "kconfig.resolve.visited_options",
    "kconfig.resolve.cache_hits",
    "kconfig.resolve.cache_misses",
)


def run_bench() -> Dict[str, Any]:
    """Run every scenario and return the metrics-shaped result document."""
    from repro.core.buildcache import BUILD_CACHE
    from repro.core.orchestrator import Fleet, KernelPolicy
    from repro.kconfig.rescache import RESOLUTION_CACHE

    # Start cold so the counters are history-independent: the same bench
    # numbers whether run standalone or after a full experiment sweep.
    BUILD_CACHE.reset()
    RESOLUTION_CACHE.reset()

    # (section, policy, count, cohort)
    scenarios = [
        ("fleet_general", KernelPolicy.GENERAL, GENERAL_GUESTS, False),
        ("fleet_per_app", KernelPolicy.PER_APP, PER_APP_GUESTS, False),
        ("fleet_general_cohort", KernelPolicy.GENERAL, GENERAL_GUESTS, True),
        ("fleet_general_tenk", KernelPolicy.GENERAL, TENK_GUESTS, True),
    ]
    sections: Dict[str, Dict[str, int]] = {}
    gauges: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    for section, policy, count, cohort in scenarios:
        simulation, sections[section] = METRICS.measure(
            lambda: Fleet.simulate(count, policy=policy, seed=FLEET_SEED,
                                   cohort=cohort),
            _WORK_COUNTERS,
        )
        # Digest as an identity in the dedicated digests section: the
        # regress gate then pins bit-identical manifests, not just equal
        # work totals.
        digests[f"fleet.manifest_digest48.{section}"] = (
            simulation.manifest_digest[:12]
        )
        gauges[f"fleet.guests.{section}"] = float(simulation.count)
        gauges[f"fleet.distinct_kernels.{section}"] = float(
            simulation.distinct_kernels
        )
        gauges[f"fleet.build_count.{section}"] = float(
            simulation.build_count
        )
        gauges[f"fleet.requests.{section}"] = float(
            simulation.total_requests
        )

    counters = {
        f"{metric}.{section}": value
        for section, deltas in sections.items()
        for metric, value in deltas.items()
    }
    return {"counters": counters, "gauges": gauges, "digests": digests,
            "histograms": {}}


def check_result(result: Dict[str, Any]) -> List[str]:
    """Return acceptance-criterion violations ([] when the result passes)."""
    counters = result.get("counters", {})
    gauges = result.get("gauges", {})
    digests = result.get("digests", {})
    failures: List[str] = []
    boots = counters.get("boot.boots.fleet_general", 0)
    if boots < 1000:
        failures.append(
            f"general fleet booted only {boots} guests; need >= 1000"
        )
    checks = counters.get("vmm.guest_checks.fleet_general", 0)
    if checks != boots:
        failures.append(
            f"general fleet ran {checks} guest checks for {boots} boots; "
            "every full-image guest must be monitor-checked"
        )
    shared = gauges.get("fleet.distinct_kernels.fleet_general", 0.0)
    if shared != 1.0:
        failures.append(
            f"general fleet materialized {shared:g} distinct kernels; "
            "the general policy must share exactly one"
        )
    diverse = gauges.get("fleet.distinct_kernels.fleet_per_app", 0.0)
    if diverse <= 1.0:
        failures.append(
            f"per-app fleet materialized {diverse:g} distinct kernels; "
            "specialization must produce several"
        )
    oracle = digests.get("fleet.manifest_digest48.fleet_general", "")
    if not oracle:
        failures.append("general fleet manifest digest missing")
    for section in ("fleet_general", "fleet_per_app", "fleet_general_tenk"):
        builds = gauges.get(f"fleet.build_count.{section}")
        kernels = gauges.get(f"fleet.distinct_kernels.{section}")
        if builds != kernels:
            failures.append(
                f"{section} reported build_count {builds:g} != "
                f"distinct_kernels {kernels:g}; the fleet must build "
                "through the orchestrator's kernel memo"
            )
    cohort = digests.get("fleet.manifest_digest48.fleet_general_cohort", "")
    if cohort != oracle:
        failures.append(
            "cohort-vectorized fold diverged from the sequential oracle: "
            f"manifest digest48 {cohort or '?'} != {oracle or '?'}"
        )
    return failures


def render_summary(result: Dict[str, Any]) -> str:
    """Human-readable scenario table for the CLI."""
    counters, gauges = result["counters"], result["gauges"]
    digests = result.get("digests", {})
    sections = sorted(
        key[len("fleet.guests."):]
        for key in gauges if key.startswith("fleet.guests.")
    )
    lines = [
        f"{'scenario':<21} {'guests':>7} {'kernels':>8} {'resolutions':>11}"
    ]
    for section in sections:
        lines.append(
            f"{section:<21} "
            f"{int(gauges[f'fleet.guests.{section}']):>7} "
            f"{int(gauges[f'fleet.distinct_kernels.{section}']):>8} "
            f"{counters[f'kconfig.resolutions.{section}']:>11}"
        )
    oracle = digests.get("fleet.manifest_digest48.fleet_general", "?")
    lines.append(f"general-fleet manifest digest48: {oracle}")
    cohort = digests.get("fleet.manifest_digest48.fleet_general_cohort")
    if cohort is not None:
        lines.append(
            "fleet_general_cohort: digest matches fleet_general: "
            f"{cohort == oracle}"
        )
    return "\n".join(lines)
