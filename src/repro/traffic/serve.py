"""One traffic-driven serving run: trace in, latency + availability out.

:func:`run_serving` wires the pieces together on a fresh
:class:`~repro.simcore.eventcore.EventCore`:

1. the router pre-warms whatever the policy asks for, and the
   supervisor registers as one more program on the core (watchdogs,
   restart probes, and quarantine lifts are just deadlines on the one
   global heap);
2. the *arrivals program* walks the trace, dispatching each arrival
   through the router inside the ``traffic.arrival`` fault site (an
   injected fault drops the request, deterministically; a fault hang
   delays every subsequent arrival).  With no fault plane installed, an
   arrival the core would dispatch next anyway is served inside the
   running arrivals event (the arrival fold), and a warm hit is served
   inside its arrival's dispatch (the router's fold); otherwise each
   arrival's instant is yielded to the heap as an event of its own and
   the router kicks a worker;
3. ``core.run()`` drains the heap to quiescence -- all traffic settled,
   all idle timeouts and watchdogs resolved, every surviving worker
   parked;
4. the router retires the survivors and the core runs once more, so
   guest-seconds cover each worker's full life.

The outcome is a :class:`ServingReport` whose canonical manifest -- and
therefore SHA-256 digest -- is a pure function of the
:class:`ServeSpec`: same spec, same bytes, under either warm-pool
policy **and under any installed fault schedule** (the plane's call
counters are reset at run entry, so fault decisions are counted per
run).  That is the determinism contract ``bench-serve --check``
asserts, with and without the stock fault schedule.  Execution counters
(events dispatched, parks/kicks, contained failures) stay *outside* the
manifest.

Latency percentiles are **conditional on success**: failed, shed, and
dropped requests contribute to the availability section (error rate,
shed rate, retries, restarts, goodput), never to the latency
distribution.  Request conservation --
``arrivals == completed + failed + shed + dropped`` -- is checked at
the end of every run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.orchestrator import KernelOrchestrator, KernelPolicy
from repro.simcore.eventcore import EventCore
from repro.traffic.arrivals import ArrivalSource, TraceSpec, curated_apps
from repro.traffic.policy import WarmPoolPolicy
from repro.traffic.router import Router
from repro.traffic.supervisor import (
    DEFAULT_RESILIENCE,
    ResiliencePolicy,
    Supervisor,
)

#: Serving-report manifest format (documented in EXPERIMENTS.md).
#: v2: resilience policy + availability section, latency conditional on
#: success, ``guests.failed``.
SERVE_SCHEMA_VERSION = 2

#: File ``fleet-serve`` writes the report manifest to.
SERVE_REPORT_NAME = "serve_report.json"

#: Buckets (ms) of the ``traffic.request_latency_ms`` histogram: warm
#: requests take microseconds, cold starts carry a ~70 ms boot.
REQUEST_LATENCY_MS_BUCKETS = (
    0.01, 0.02, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0,
)


@dataclass(frozen=True)
class ServeSpec:
    """Everything one serving run depends on (the digest's input)."""

    trace: TraceSpec
    policy: WarmPoolPolicy
    seed: int = 0
    kernel_policy: KernelPolicy = KernelPolicy.GENERAL
    kml: bool = True
    resilience: ResiliencePolicy = DEFAULT_RESILIENCE
    #: Attach usage recorders to every serving guest and carry the
    #: per-app merged traces (and a ``usage`` manifest section) in the
    #: report.  Off by default: recording never perturbs timing, but the
    #: extra manifest section would change pinned digests.
    record_usage: bool = False


@dataclass
class ServingReport:
    """The deterministic outcome of one :func:`run_serving` run."""

    spec: ServeSpec
    arrivals: int = 0
    served: int = 0
    failed: int = 0
    shed: int = 0
    dropped: int = 0
    clamped: int = 0
    retries: int = 0
    restarts: int = 0
    guest_crashes: int = 0
    guest_hangs: int = 0
    boot_failures: int = 0
    watchdog_kills: int = 0
    quarantines: int = 0
    breaker_opens: int = 0
    failed_reasons: Dict[str, int] = field(default_factory=dict)
    shed_reasons: Dict[str, int] = field(default_factory=dict)
    goodput_rps: float = 0.0
    cold_starts: int = 0
    latency_ms: Dict[str, float] = field(default_factory=dict)
    queue_high_water: int = 0
    queued: int = 0
    guests_spawned: int = 0
    guests_retired: int = 0
    guests_failed: int = 0
    peak_live: int = 0
    guest_seconds: float = 0.0
    per_app: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Per-app merged usage traces; populated only when the spec asked
    #: for recording (``spec.record_usage``).
    usage_by_app: Dict[str, object] = field(default_factory=dict)
    #: Execution counters (EventCoreStats), deliberately manifest-external.
    eventcore_stats: Optional[object] = None

    @property
    def cold_start_fraction(self) -> float:
        return self.cold_starts / self.served if self.served else 0.0

    @property
    def error_rate(self) -> float:
        """Failed requests as a fraction of delivered arrivals."""
        return self.failed / self.arrivals if self.arrivals else 0.0

    @property
    def shed_rate(self) -> float:
        """Shed requests as a fraction of delivered arrivals."""
        return self.shed / self.arrivals if self.arrivals else 0.0

    def manifest(self) -> Dict[str, object]:
        """The canonical JSON-able manifest (digest input).

        The ``usage`` section exists only when the spec recorded usage,
        so default-spec digests are byte-identical with or without this
        feature compiled in.
        """
        manifest: Dict[str, object] = {
            "schema_version": SERVE_SCHEMA_VERSION,
            "trace": self.spec.trace.to_manifest(),
            "policy": self.spec.policy.to_manifest(),
            "resilience": self.spec.resilience.to_manifest(),
            "seed": self.spec.seed,
            "kernel_policy": self.spec.kernel_policy.value,
            "kml": self.spec.kml,
            "served": self.served,
            "dropped": self.dropped,
            "clamped": self.clamped,
            "cold_starts": self.cold_starts,
            "cold_start_fraction": self.cold_start_fraction,
            "latency_ms": self.latency_ms,
            "availability": {
                "arrivals": self.arrivals,
                "completed": self.served,
                "failed": self.failed,
                "shed": self.shed,
                "dropped": self.dropped,
                "error_rate": self.error_rate,
                "shed_rate": self.shed_rate,
                "retries": self.retries,
                "restarts": self.restarts,
                "guest_crashes": self.guest_crashes,
                "guest_hangs": self.guest_hangs,
                "boot_failures": self.boot_failures,
                "watchdog_kills": self.watchdog_kills,
                "quarantines": self.quarantines,
                "breaker_opens": self.breaker_opens,
                "failed_reasons": {
                    k: self.failed_reasons[k]
                    for k in sorted(self.failed_reasons)
                },
                "shed_reasons": {
                    k: self.shed_reasons[k]
                    for k in sorted(self.shed_reasons)
                },
                "goodput_rps": self.goodput_rps,
            },
            "queue": {
                "high_water": self.queue_high_water,
                "queued_requests": self.queued,
            },
            "guests": {
                "spawned": self.guests_spawned,
                "retired": self.guests_retired,
                "failed": self.guests_failed,
                "peak_live": self.peak_live,
                "guest_seconds": self.guest_seconds,
            },
            "per_app": self.per_app,
        }
        if self.spec.record_usage:
            manifest["usage"] = {
                app: trace.as_dict()
                for app, trace in sorted(self.usage_by_app.items())
            }
        return manifest

    @property
    def manifest_digest(self) -> str:
        """SHA-256 over the canonical manifest encoding."""
        encoded = json.dumps(
            self.manifest(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def render(self) -> str:
        """Human-readable run summary (the CLI surface)."""
        lines = [
            f"serving run: {self.spec.trace.kind} trace, "
            f"{self.spec.trace.requests} requests, "
            f"policy {self.spec.policy.name}, seed {self.spec.seed}",
            f"  served        : {self.served} "
            f"(failed {self.failed}, shed {self.shed}, "
            f"dropped {self.dropped}, queued {self.queued})",
            f"  availability  : error rate {self.error_rate:.4%}, "
            f"shed rate {self.shed_rate:.4%}, "
            f"goodput {self.goodput_rps:.1f} rps",
            f"  recovery      : {self.retries} retries, "
            f"{self.restarts} restarts, "
            f"{self.guest_crashes} crashes, {self.guest_hangs} hangs, "
            f"{self.boot_failures} boot failures, "
            f"{self.watchdog_kills} watchdog kills, "
            f"{self.quarantines} quarantines, "
            f"{self.breaker_opens} breaker opens",
            f"  latency ms    : p50 {self.latency_ms.get('p50', 0.0):.3f}  "
            f"p99 {self.latency_ms.get('p99', 0.0):.3f}  "
            f"p999 {self.latency_ms.get('p999', 0.0):.3f}  "
            f"max {self.latency_ms.get('max', 0.0):.3f}  "
            f"(conditional on success)",
            f"  cold starts   : {self.cold_starts} "
            f"({self.cold_start_fraction:.2%} of served)",
            f"  queue depth   : high water {self.queue_high_water}",
            f"  guests        : {self.guests_spawned} spawned, "
            f"{self.guests_retired} retired, {self.guests_failed} failed, "
            f"peak live {self.peak_live}",
            f"  guest-seconds : {self.guest_seconds:.3f}",
            f"  manifest      : sha256 {self.manifest_digest[:16]}...",
        ]
        return "\n".join(lines)


def percentile_ns(sorted_samples: List[float], q: float) -> float:
    """Nearest-rank percentile over an ascending sample list."""
    if not sorted_samples:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_samples)))
    return sorted_samples[rank - 1]


def _arrivals_program(source: ArrivalSource, router: Router):
    """Walk the trace: draw each arrival, reach its instant, dispatch it.

    The stepped branch yields the drawn instant to the core, which lands
    the arrivals clock there when it pops the entry.  The *arrival fold*
    skips that round trip when the core would pop this program's entry
    straight back (:meth:`EventCore.runs_next`): it flushes the deferred
    kicks as the core would have, lands the arrivals clock on the
    instant itself and dispatches in place.  It folds only when the
    router's fold is on, so under an installed plane, even an empty
    one, every arrival is its own event: the empty-plane rerun stays
    the oracle and ``eventcore.dispatch`` is decided once per arrival.
    """
    from repro.faults import FaultInjected, fault_site

    core = router.core
    clock = source.clock
    fold = router._fold
    while True:
        deadline = source.arm_next()
        if deadline is None:
            return
        if fold and core.runs_next(deadline):
            core.flush_deferred()
            clock.advance_to(deadline)
        else:
            yield deadline
        arrival = source.take()
        try:
            with fault_site("traffic.arrival"):
                router.dispatch(arrival)
        except FaultInjected:
            router.drop(arrival)


def _run_serving_counted(
    spec: ServeSpec,
) -> Tuple[ServingReport, Dict[str, int]]:
    """Worker entry point: one whole serving run plus its counter deltas."""
    from repro.observe import METRICS

    return METRICS.measure(lambda: run_serving(spec))


def run_serving_many(specs: List[ServeSpec],
                     jobs: int = 1) -> List[ServingReport]:
    """Execute whole serving runs across worker processes; reports in order.

    Serving parallelism is **run-level**: each :class:`ServeSpec` is an
    independent deterministic run (a policy sweep, a seed sweep), so
    whole runs fan out across ``fork`` workers and merge by position,
    with each worker's counter deltas folded back into this process's
    registry, sorted by name, so metrics match a sequential sweep.  With
    ``jobs <= 1`` (or a single spec) the runs execute in-process.
    A *single* run never shards: the router's global coupling --
    ``max_total`` admission, ``peak_live`` and the queue high-water mark
    are time-maxima over cross-app sums, all in the manifest -- makes a
    run's manifest irreproducible from independently-executed app
    slices (see ``docs/SERVING.md``).
    """
    specs = list(specs)
    jobs = max(1, int(jobs))
    if jobs == 1 or len(specs) <= 1:
        return [run_serving(spec) for spec in specs]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from repro.observe import METRICS

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs)),
                             mp_context=context) as pool:
        outcomes = list(pool.map(_run_serving_counted, specs))
    for _, deltas in outcomes:
        for name in sorted(deltas):
            METRICS.counter(name).inc(deltas[name])
    return [report for report, _ in outcomes]


def run_serving(spec: ServeSpec) -> ServingReport:
    """Execute one traffic-driven serving run; fully deterministic.

    Deterministic *under faults* too: if a fault plane is installed, its
    per-site call counters are rewound at entry, so the n-th fault
    decision of this run is the n-th decision of any rerun of the same
    spec -- whether the runs share a process, a worker pool, or nothing.
    """
    from repro.faults import active_plane

    plane = active_plane()
    if plane is not None:
        plane.reset_counters()
    core = EventCore()
    orchestrator = KernelOrchestrator(policy=spec.kernel_policy,
                                      kml=spec.kml)
    apps = curated_apps()
    router = Router(core=core, orchestrator=orchestrator,
                    policy=spec.policy, apps=apps,
                    resilience=spec.resilience,
                    record_usage=spec.record_usage)
    supervisor = Supervisor(core=core, router=router)
    router.supervisor = supervisor
    core.on_failure = router.on_runner_failure
    supervisor.start()
    router.pre_warm()
    source = ArrivalSource(spec.trace, spec.seed,
                           core.clock_for("arrivals"), apps)
    router.source = source
    core.spawn("arrivals", _arrivals_program(source, router))
    core.run()          # to quiescence: traffic settled, timeouts resolved
    router.finalize()   # fail leftover work, retire the parked survivors
    stats = core.run()
    router.check_conservation()
    return _report(spec, source, router, supervisor, stats)


def _report(spec: ServeSpec, source: ArrivalSource, router: Router,
            supervisor: Supervisor, stats) -> ServingReport:
    samples = sorted(s.latency_ns for s in router.samples)
    latency_ms = {
        "p50": percentile_ns(samples, 0.50) / 1e6,
        "p99": percentile_ns(samples, 0.99) / 1e6,
        "p999": percentile_ns(samples, 0.999) / 1e6,
        "max": (samples[-1] / 1e6) if samples else 0.0,
        "mean": (sum(samples) / len(samples) / 1e6) if samples else 0.0,
    }
    per_app: Dict[str, Dict[str, int]] = {}
    for sample in router.samples:
        entry = per_app.setdefault(
            sample.app, {"requests": 0, "cold_starts": 0, "spawned": 0}
        )
        entry["requests"] += 1
        if sample.cold:
            entry["cold_starts"] += 1
    for worker in router.workers:
        per_app.setdefault(
            worker.app, {"requests": 0, "cold_starts": 0, "spawned": 0}
        )["spawned"] += 1
    # Goodput: completed requests over the span traffic actually covered
    # (the arrivals clock's final instant -- deterministic, virtual).
    horizon_s = source.clock.now_ns / 1e9
    goodput = (len(router.samples) / horizon_s) if horizon_s > 0 else 0.0
    report = ServingReport(
        spec=spec,
        arrivals=router.arrivals,
        served=len(router.samples),
        failed=router.failed,
        shed=router.shed,
        dropped=router.dropped,
        clamped=source.clamped,
        retries=router.retries,
        restarts=router.restarts,
        guest_crashes=router.guest_crashes,
        guest_hangs=router.guest_hangs,
        boot_failures=router.boot_failures,
        watchdog_kills=router.watchdog_kills,
        quarantines=supervisor.quarantines,
        breaker_opens=sum(b.opens for b in router.breakers.values()),
        failed_reasons=dict(router.failed_reasons),
        shed_reasons=dict(router.shed_reasons),
        goodput_rps=round(goodput, 6),
        cold_starts=router.cold_starts,
        latency_ms=latency_ms,
        queue_high_water=router.queue_high_water,
        queued=router.queued,
        guests_spawned=router.spawned,
        guests_retired=router.retired_count,
        guests_failed=router.failed_workers,
        peak_live=router.peak_live,
        guest_seconds=round(router.guest_seconds, 9),
        per_app={app: per_app[app] for app in sorted(per_app)},
        usage_by_app=(
            router.usage_by_app() if spec.record_usage else {}
        ),
        eventcore_stats=stats,
    )
    _publish_metrics(report, samples)
    return report


def _publish_metrics(report: ServingReport,
                     latencies_ns: List[float]) -> None:
    """Publish the run's ``traffic.*`` metrics.

    *latencies_ns* holds every completed request's latency; each becomes
    one ``traffic.request_latency_ms`` observation, folded in here at
    the end of the run rather than on the per-request path.
    """
    from repro.observe import METRICS

    METRICS.counter("traffic.requests_served").inc(report.served)
    METRICS.counter("traffic.requests_failed").inc(report.failed)
    METRICS.counter("traffic.requests_shed").inc(report.shed)
    METRICS.counter("traffic.requests_dropped").inc(report.dropped)
    METRICS.counter("traffic.requests_queued").inc(report.queued)
    METRICS.counter("traffic.retries").inc(report.retries)
    METRICS.counter("traffic.restarts").inc(report.restarts)
    METRICS.counter("traffic.guest_crashes").inc(report.guest_crashes)
    METRICS.counter("traffic.guest_hangs").inc(report.guest_hangs)
    METRICS.counter("traffic.boot_failures").inc(report.boot_failures)
    METRICS.counter("traffic.watchdog_kills").inc(report.watchdog_kills)
    METRICS.counter("traffic.quarantines").inc(report.quarantines)
    METRICS.counter("traffic.breaker_opens").inc(report.breaker_opens)
    METRICS.counter("traffic.cold_starts").inc(report.cold_starts)
    METRICS.counter("traffic.guests_spawned").inc(report.guests_spawned)
    METRICS.counter("traffic.guests_retired").inc(report.guests_retired)
    METRICS.counter("traffic.guests_failed").inc(report.guests_failed)
    METRICS.gauge("traffic.queue_high_water").set(
        float(report.queue_high_water)
    )
    METRICS.gauge("traffic.guest_seconds").set(report.guest_seconds)
    METRICS.histogram(
        "traffic.request_latency_ms", REQUEST_LATENCY_MS_BUCKETS
    ).observe_many(latency / 1e6 for latency in latencies_ns)
