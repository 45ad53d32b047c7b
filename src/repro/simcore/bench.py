"""The ``bench-guests`` microbenchmark: fleet simulation cost, counted.

Boots and serves whole fleets through :meth:`Fleet.simulate
<repro.core.orchestrator.Fleet.simulate>` -- the cohort fold: one
simulated representative per app cohort, its entry replayed for every
other member -- and reports the deterministic *work counters* the run
caused, per kernel policy and fleet size:

- ``fleet_general`` -- :data:`GENERAL_GUESTS` guests sharing one
  ``lupine-general`` kernel (the paper's recommended deployment);
- ``fleet_per_app`` -- :data:`PER_APP_GUESTS` guests on per-app
  specialized kernels (maximum specialization, maximum builds);
- ``fleet_general_tenk`` -- :data:`TENK_GUESTS` guests on the general
  kernel, an order of magnitude larger.

Nothing reported is wall-clock: boot and resolver work are counter
deltas (``boot.boots``, ``kconfig.resolve.*``, ``vmm.guest_checks``).
Host time is what ``perfbench/`` measures.

Manifest digests land in the result's dedicated ``digests`` section
(they are identities, not monotonic counts -- the regress gate compares
them for exact equality), so the gate pins bit-identical fleet
behaviour; ``tests/test_shard_fleet.py`` checks that the sequential
per-guest loop (the test oracle) reproduces the pinned general and
per-app digests.  Digests are hash-seed
independent: every float fold over set-ordered config options iterates
in sorted order, so no ``PYTHONHASHSEED`` pin is needed.  The
checked-in snapshot lives at ``benchmarks/baseline/BENCH_guests.json``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.observe import METRICS

#: Fleet sizes per scenario.  The general fleet is the acceptance-scale
#: run (>= 1000 guests on one shared kernel); the per-app fleet is
#: smaller -- its point is kernel diversity, not scale.
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

#: Per-scenario gauges and digest, each published as ``<name>.<section>``.
_GAUGES = ("fleet.guests", "fleet.distinct_kernels", "fleet.build_count",
           "fleet.requests")
_DIGEST = "fleet.manifest_digest48"

#: (section, kernel policy, guests), in run order.
SCENARIOS = (
    ("fleet_general", "GENERAL", GENERAL_GUESTS),
    ("fleet_per_app", "PER_APP", PER_APP_GUESTS),
    ("fleet_general_tenk", "GENERAL", TENK_GUESTS),
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

    sections: Dict[str, Dict[str, int]] = {}
    gauges: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    for section, policy, count in SCENARIOS:
        simulation, sections[section] = METRICS.measure(
            lambda: Fleet.simulate(count, policy=KernelPolicy[policy],
                                   seed=FLEET_SEED),
            _WORK_COUNTERS,
        )
        # Digest as an identity in the dedicated digests section: the
        # regress gate then pins bit-identical manifests, not just equal
        # work totals.
        digests[f"{_DIGEST}.{section}"] = simulation.manifest_digest[:12]
        published = (simulation.count, simulation.distinct_kernels,
                     simulation.build_count, simulation.total_requests)
        for gauge, value in zip(_GAUGES, published):
            gauges[f"{gauge}.{section}"] = float(value)

    counters = {
        f"{metric}.{section}": value
        for section, deltas in sections.items()
        for metric, value in deltas.items()
    }
    return {"counters": counters, "gauges": gauges, "digests": digests,
            "histograms": {}}


def check_result(result: Dict[str, Any]) -> List[str]:
    """Return acceptance-criterion violations ([] when the result passes).

    A document missing any scenario's counters, gauges or digest fails
    outright, naming the first missing entry.
    """
    counters = result.get("counters", {})
    gauges = result.get("gauges", {})
    digests = result.get("digests", {})
    missing = [
        f"{name}.{section}"
        for section, _, _ in SCENARIOS
        for document, names in ((counters, _WORK_COUNTERS),
                                (gauges, _GAUGES), (digests, (_DIGEST,)))
        for name in names
        if f"{name}.{section}" not in document
    ]
    if missing:
        return [f"result is missing {len(missing)} entries, e.g. "
                f"{missing[0]}; every scenario must report"]
    failures: List[str] = []
    guests = gauges["fleet.guests.fleet_general"]
    if guests < 1000:
        failures.append(
            f"general fleet has only {guests:g} guests in its manifest; "
            "need >= 1000"
        )
    boots = counters["boot.boots.fleet_general"]
    checks = counters["vmm.guest_checks.fleet_general"]
    if checks != boots:
        failures.append(
            f"general fleet ran {checks} guest checks for {boots} boots; "
            "every cohort representative must be monitor-checked"
        )
    shared = gauges["fleet.distinct_kernels.fleet_general"]
    if shared != 1.0:
        failures.append(
            f"general fleet materialized {shared:g} distinct kernels; "
            "the general policy must share exactly one"
        )
    diverse = gauges["fleet.distinct_kernels.fleet_per_app"]
    if diverse <= 1.0:
        failures.append(
            f"per-app fleet materialized {diverse:g} distinct kernels; "
            "specialization must produce several"
        )
    for section, _, _ in SCENARIOS:
        builds = gauges[f"fleet.build_count.{section}"]
        kernels = gauges[f"fleet.distinct_kernels.{section}"]
        if builds != kernels:
            failures.append(
                f"{section} reported build_count {builds:g} != "
                f"distinct_kernels {kernels:g}; the fleet must build "
                "through the orchestrator's kernel memo"
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
    digest = digests.get("fleet.manifest_digest48.fleet_general", "?")
    lines.append(f"general-fleet manifest digest48: {digest}")
    return "\n".join(lines)
