"""The ``bench-serve`` microbenchmark: traffic-driven serving, counted.

Runs the canonical serving scenario -- a seeded diurnal trace of
:data:`SERVE_REQUESTS` requests against a 1000-guest fleet capacity --
once per warm-pool policy, with and without the stock serving fault
schedule, and reports the deterministic work counters plus the
latency/cold-start shape of each run (:data:`SCENARIOS`):

- ``serve_scale_to_zero`` -- the serverless deployment: every traffic
  trough retires the fleet past the idle timeout, every ramp cold-boots
  it again through the full ``GuestSpec -> build -> boot`` pipeline, so
  the paper's Fig 7 boot cost lands inside the latency tail;
- ``serve_fixed_pool`` -- the provisioned deployment: pre-warmed,
  keepalive-forever pools buy the tail back with guest-seconds;
- ``serve_chaos_scale_to_zero`` / ``serve_chaos_fixed_pool`` -- both
  deployments again under the stock serving fault schedule (seeded
  guest crash/hang/boot-fail plus arrival faults, seed
  :data:`~repro.traffic.chaos.SERVE_CHAOS_SEED`): the self-healing
  control plane must recover -- nonzero restarts and retries, request
  conservation, error rate below the injected fault mass.

Every scenario runs **twice**; the manifest digest of the rerun must be
byte-identical to the first run's, which is the serving determinism
contract (same :class:`~repro.traffic.serve.ServeSpec`, same bytes).
The reruns also carry the resilience invariants: the two clean
scenarios rerun under an installed fault plane with nothing scheduled
(an empty plane must be invisible), and the two faulted scenarios rerun
as one :func:`~repro.traffic.serve.run_serving_many` sweep across
:data:`RERUN_JOBS` worker processes (fan-out must not change a byte).
An installed plane also sends every arrival and every warm hit down the
stepped path, while the clean first runs serve consecutive arrivals
inside the running arrivals event (the arrival fold,
``repro.traffic.serve._arrivals_program``) and warm hits inside their
arrival's dispatch (the warm-hit fold, ``Router._serve_inline``), so the
clean reruns are the folds' 100k-request differential against their
stepped oracle -- and :func:`check_result` requires the folds to have
fired: at most :data:`MAX_EVENTS_PER_REQUEST` dispatched events per
served request.
Both digests land in the result's dedicated ``digests`` section (they
are identities, not monotonic counts), where the ``regress`` gate pins
them -- by exact equality -- against the checked-in snapshot at
``benchmarks/baseline/BENCH_serve.json``.  Digests are hash-seed
independent (all config-option float folds iterate sorted), so no
``PYTHONHASHSEED`` pin is needed.

Nothing reported is wall-clock: boot/resolver work are counter deltas
(of each scenario's first run) and latency percentiles are
virtual-time.  Host time is what ``perfbench/`` measures.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.observe import METRICS

#: The canonical trace: requests served per run (acceptance floor 100k).
SERVE_REQUESTS = 100_000

#: Mean arrival rate and diurnal shape.  One period is 1.6 virtual
#: seconds with full-depth troughs (amplitude 1.0), so a 100-second run
#: crosses ~62 troughs; each one outlives the scale-to-zero idle timeout
#: and retires the warm pools, which is what makes the fleet cold-boot
#: more than 1000 guests over the run.
SERVE_MEAN_RPS = 1000
SERVE_PERIOD_S = 1.6
SERVE_AMPLITUDE = 1.0

#: The PRNG seed arrivals and the app mix are drawn from.
SERVE_SEED = 2020  # EuroSys '20

#: ``(section, policy name, faulted)``, in run order.
SCENARIOS = (
    ("serve_scale_to_zero", "scale-to-zero", False),
    ("serve_fixed_pool", "fixed-pool", False),
    ("serve_chaos_scale_to_zero", "scale-to-zero", True),
    ("serve_chaos_fixed_pool", "fixed-pool", True),
)

#: Worker processes the faulted reruns fan out across.
RERUN_JOBS = 2

#: Event-core dispatches a clean scenario may spend per served request.
#: The stepped path spends three (arrival, serve, return to the pool);
#: the warm-hit fold serves a warm hit, and usually returns it, inside
#: its arrival's dispatch, and the arrival fold serves consecutive
#: arrivals inside one running arrivals event.
MAX_EVENTS_PER_REQUEST = 0.25

_WORK_COUNTERS = (
    "boot.boots",
    "vmm.guest_checks",
    "kconfig.resolutions",
    "eventcore.events_dispatched",
    "eventcore.guests_fast_forwarded",
    "eventcore.kicks",
    "eventcore.parks",
)


def canonical_trace(requests: int = SERVE_REQUESTS):
    """The benchmark's diurnal trace (also the ``fleet-serve`` default)."""
    from repro.traffic.arrivals import diurnal_trace

    return diurnal_trace(
        requests=requests,
        mean_rps=SERVE_MEAN_RPS,
        period_s=SERVE_PERIOD_S,
        amplitude=SERVE_AMPLITUDE,
    )


def run_bench() -> Dict[str, Any]:
    """Run all scenarios (twice each) and return the result document."""
    from repro import faults
    from repro.core.buildcache import BUILD_CACHE
    from repro.faults.plane import FaultPlane
    from repro.kconfig.rescache import RESOLUTION_CACHE
    from repro.traffic.chaos import SERVE_CHAOS_SEED, default_serving_schedule
    from repro.traffic.policy import named_policy
    from repro.traffic.serve import ServeSpec, run_serving, run_serving_many

    # Start cold so the counters are history-independent: the same bench
    # numbers whether run standalone or after a full experiment sweep.
    BUILD_CACHE.reset()
    RESOLUTION_CACHE.reset()

    trace = canonical_trace()
    specs = {
        section: ServeSpec(trace=trace, policy=named_policy(policy),
                           seed=SERVE_SEED)
        for section, policy, _ in SCENARIOS
    }
    clean = [section for section, _, faulted in SCENARIOS if not faulted]
    chaos = [section for section, _, faulted in SCENARIOS if faulted]

    def counted(sections):
        return {
            section: METRICS.measure(lambda: run_serving(specs[section]),
                                     _WORK_COUNTERS)
            for section in sections
        }

    # First runs, whose counters the document reports: the clean
    # scenarios with no fault plane, the faulted ones back to back under
    # one schedule (each run must rewind its call counters).
    runs = counted(clean)
    with faults.activated(default_serving_schedule(SERVE_CHAOS_SEED)):
        runs.update(counted(chaos))
    # Reruns, which must reproduce every manifest byte for byte: the
    # clean scenarios under an installed plane with nothing scheduled,
    # the faulted ones as one sweep across worker processes.
    with faults.activated(FaultPlane(SERVE_CHAOS_SEED)):
        reruns = [run_serving(specs[section]) for section in clean]
    with faults.activated(default_serving_schedule(SERVE_CHAOS_SEED)):
        reruns += run_serving_many([specs[section] for section in chaos],
                                   jobs=RERUN_JOBS)

    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    for section, (report, deltas) in runs.items():
        counters.update({
            f"{metric}.{section}": value for metric, value in deltas.items()
        })
        gauges.update(_gauges(section, report))
        digests[f"serve.manifest_digest48.{section}"] = (
            report.manifest_digest[:12]
        )
    for section, rerun in zip(clean + chaos, reruns):
        digests[f"serve.manifest_digest48.{section}.rerun"] = (
            rerun.manifest_digest[:12]
        )
    return {"counters": counters, "gauges": gauges, "digests": digests,
            "histograms": {}}


def _gauges(section: str, report: Any) -> Dict[str, float]:
    """One run's latency, churn and availability shape."""
    latency = report.latency_ms
    return {
        f"serve.requests.{section}": float(report.served),
        f"serve.dropped.{section}": float(report.dropped),
        f"serve.failed.{section}": float(report.failed),
        f"serve.shed.{section}": float(report.shed),
        f"serve.retries.{section}": float(report.retries),
        f"serve.restarts.{section}": float(report.restarts),
        f"serve.guests_failed.{section}": float(report.guests_failed),
        f"serve.error_rate.{section}": round(report.error_rate, 6),
        f"serve.cold_start_fraction.{section}": round(
            report.cold_start_fraction, 6
        ),
        f"serve.latency_p50_ms.{section}": latency["p50"],
        f"serve.latency_p99_ms.{section}": latency["p99"],
        f"serve.latency_p999_ms.{section}": latency["p999"],
        f"serve.queue_high_water.{section}": float(report.queue_high_water),
        f"serve.guests_spawned.{section}": float(report.guests_spawned),
        f"serve.peak_live.{section}": float(report.peak_live),
        f"serve.guest_seconds.{section}": round(report.guest_seconds, 3),
    }


def check_result(result: Dict[str, Any]) -> List[str]:
    """Return acceptance-criterion violations ([] when the result passes)."""
    counters = result.get("counters", {})
    gauges = result.get("gauges", {})
    digests = result.get("digests", {})
    failures: List[str] = []
    for section, _, faulted in SCENARIOS:
        served = gauges.get(f"serve.requests.{section}", 0.0)
        if not faulted and served < SERVE_REQUESTS:
            failures.append(
                f"{section} served only {served:g} requests; the canonical "
                f"trace must deliver >= {SERVE_REQUESTS}"
            )
        first = digests.get(f"serve.manifest_digest48.{section}", "")
        rerun = digests.get(f"serve.manifest_digest48.{section}.rerun", "?")
        if not first:
            failures.append(f"{section} manifest digest missing")
        if first != rerun:
            failures.append(
                f"{section} is not deterministic: rerun manifest digest48 "
                f"{rerun} != {first or '?'}"
            )
        p50 = gauges.get(f"serve.latency_p50_ms.{section}", 0.0)
        p99 = gauges.get(f"serve.latency_p99_ms.{section}", 0.0)
        p999 = gauges.get(f"serve.latency_p999_ms.{section}", 0.0)
        if not 0.0 < p50 <= p99 <= p999:
            failures.append(
                f"{section} latency percentiles disordered: "
                f"p50 {p50:g} / p99 {p99:g} / p999 {p999:g} ms"
            )
        if faulted:
            failures.extend(_chaos_failures(section, gauges))
        else:
            events = counters.get(
                f"eventcore.events_dispatched.{section}", 0
            )
            if not events or events > MAX_EVENTS_PER_REQUEST * served:
                failures.append(
                    f"{section} dispatched {events} events for {served:g} "
                    "served requests; arrivals must fold into the running "
                    "arrivals event and warm hits into their arrival's "
                    f"dispatch (<= {MAX_EVENTS_PER_REQUEST} events per "
                    "request)"
                )
            # The zero-fault scenarios must show no availability events
            # at all (installed or not, an idle fault plane is invisible).
            for metric in ("failed", "shed", "retries", "restarts",
                           "guests_failed"):
                value = gauges.get(f"serve.{metric}.{section}", 0.0)
                if value != 0.0:
                    failures.append(
                        f"{section} reported {metric} = {value:g} with no "
                        "fault schedule active; the zero-fault path "
                        "regressed"
                    )
    spawned = gauges.get("serve.guests_spawned.serve_scale_to_zero", 0.0)
    if spawned < 1000:
        failures.append(
            f"scale-to-zero cold-booted only {spawned:g} guests over the "
            "trace; the churn scenario must exceed 1000"
        )
    cold = gauges.get("serve.cold_start_fraction.serve_scale_to_zero", 0.0)
    if cold <= 0.0:
        failures.append(
            "scale-to-zero reported a zero cold-start fraction; boots "
            "must appear in the served traffic"
        )
    warm_cold = gauges.get("serve.cold_start_fraction.serve_fixed_pool", 0.0)
    if warm_cold >= cold:
        failures.append(
            f"fixed-pool cold-start fraction {warm_cold:g} is not below "
            f"scale-to-zero's {cold:g}; pre-warming must absorb boots"
        )
    tail_cold = gauges.get("serve.latency_p999_ms.serve_scale_to_zero", 0.0)
    tail_warm = gauges.get("serve.latency_p999_ms.serve_fixed_pool", 0.0)
    if tail_warm >= tail_cold:
        failures.append(
            f"fixed-pool p999 {tail_warm:g} ms is not below scale-to-zero's "
            f"{tail_cold:g} ms; the warm pool must buy the tail back"
        )
    if counters.get("eventcore.kicks.serve_scale_to_zero", 0) <= 0:
        failures.append(
            "scale-to-zero recorded no EventCore kicks; no pooled worker "
            "can have been woken or had its idle deadline re-armed"
        )
    return failures


def _chaos_failures(section: str, gauges: Dict[str, float]) -> List[str]:
    """A faulted scenario must show the control plane healing: nonzero
    recovery work, request conservation, and an error rate below the
    injected per-attempt fault mass."""
    from repro.traffic.chaos import SERVE_CHAOS_RATES

    fault_mass = sum(SERVE_CHAOS_RATES.values())
    failures: List[str] = []
    if gauges.get(f"serve.restarts.{section}", 0.0) <= 0.0:
        failures.append(
            f"{section} recorded no supervisor restarts; guest failures "
            "cannot have been healed"
        )
    if gauges.get(f"serve.retries.{section}", 0.0) <= 0.0:
        failures.append(
            f"{section} recorded no retries; failed requests cannot have "
            "been re-dispatched"
        )
    error_rate = gauges.get(f"serve.error_rate.{section}", 1.0)
    if error_rate >= fault_mass:
        failures.append(
            f"{section} error rate {error_rate:g} is not below the "
            f"injected fault mass {fault_mass:g}; retries/restarts failed "
            "to absorb the injected failures"
        )
    accounted = sum(
        gauges.get(f"serve.{metric}.{section}", 0.0)
        for metric in ("requests", "failed", "shed", "dropped")
    )
    if accounted != SERVE_REQUESTS:
        failures.append(
            f"{section} lost requests: served + failed + shed + dropped = "
            f"{accounted:g} != {SERVE_REQUESTS} arrivals"
        )
    return failures


def render_summary(result: Dict[str, Any]) -> str:
    """Human-readable scenario table for the CLI."""
    gauges = result["gauges"]
    digests = result.get("digests", {})
    sections = sorted(
        key[len("serve.requests."):]
        for key in gauges if key.startswith("serve.requests.")
    )
    lines = [
        f"{'scenario':<22} {'served':>7} {'spawned':>8} {'cold%':>7} "
        f"{'p50ms':>7} {'p999ms':>8} {'guest-s':>9}"
    ]
    for section in sections:
        lines.append(
            f"{section:<22} "
            f"{int(gauges[f'serve.requests.{section}']):>7} "
            f"{int(gauges[f'serve.guests_spawned.{section}']):>8} "
            f"{gauges[f'serve.cold_start_fraction.{section}']:>7.3%} "
            f"{gauges[f'serve.latency_p50_ms.{section}']:>7.3f} "
            f"{gauges[f'serve.latency_p999_ms.{section}']:>8.3f} "
            f"{gauges[f'serve.guest_seconds.{section}']:>9.1f}"
        )
    for section in sections:
        first = digests[f"serve.manifest_digest48.{section}"]
        rerun = digests[f"serve.manifest_digest48.{section}.rerun"]
        lines.append(
            f"{section} manifest digest48: {first} "
            f"(rerun matches: {first == rerun})"
        )
    return "\n".join(lines)
