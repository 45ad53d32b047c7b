"""Tests for the traffic-driven serving layer (``repro.traffic``).

Covers the seeded arrival generators (shape, determinism, the
clock-agreement property), the warm-pool policies, the router's
dispatch/queue/cold-boot behaviour, the end-to-end determinism contract
of :func:`~repro.traffic.serve.run_serving` (same spec, byte-identical
manifest digest, under both preset policies), the ``traffic.arrival``
fault site, and the ``bench-serve`` acceptance checker against the
committed baseline.
"""

import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.arrivals import (
    ArrivalSource,
    arrival_times_ns,
    bursty_trace,
    curated_apps,
    diurnal_trace,
    poisson_trace,
    zipf_app_mix,
)
from repro.traffic.policy import (
    FIXED_POOL,
    SCALE_TO_ZERO,
    WarmPoolPolicy,
    named_policy,
    policy_names,
)
from repro.traffic.serve import ServeSpec, percentile_ns, run_serving

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A small, fast serving scenario: one full diurnal cycle with a deep
#: trough, enough for cold boots and retirement churn in well under a
#: second of host time.
SMALL_TRACE = diurnal_trace(requests=400, mean_rps=500, period_s=1.6,
                            amplitude=1.0)


def _expovariate_times(spec, seed):
    """Reference trace: each gap drawn with ``rng.expovariate``."""
    rng = random.Random(f"traffic.arrivals:{seed}")
    times, t = [], 0.0
    if spec.kind == "poisson":
        for _ in range(spec.requests):
            t += rng.expovariate(spec.mean_rps)
            times.append(t * 1e9)
        return times
    if spec.kind == "diurnal":
        max_rate = spec.mean_rps * (1.0 + spec.amplitude)

        def rate_at(t):
            return spec.mean_rps * (1.0 - spec.amplitude * math.cos(
                2.0 * math.pi * t / spec.period_s))
    else:
        max_rate = spec.on_rps

        def rate_at(t):
            cycle = spec.on_s + spec.off_s
            return spec.on_rps if (t % cycle) < spec.on_s else spec.off_rps
    while len(times) < spec.requests:
        t += rng.expovariate(max_rate)
        if rng.random() * max_rate <= rate_at(t):
            times.append(t * 1e9)
    return times


class TestArrivalGenerators:
    @pytest.mark.parametrize("trace", [
        poisson_trace(requests=200, mean_rps=1000),
        diurnal_trace(requests=200, mean_rps=1000, period_s=2.0,
                      amplitude=0.9),
        bursty_trace(requests=200, on_rps=2000, off_rps=100),
    ])
    def test_traces_emit_ordered_count_exact_times(self, trace):
        times = list(arrival_times_ns(trace, seed=7))
        assert len(times) == 200
        assert times == sorted(times)
        assert all(t > 0.0 for t in times)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2020, 99_991])
    @pytest.mark.parametrize("trace", [
        poisson_trace(requests=500, mean_rps=1000),
        diurnal_trace(requests=500, mean_rps=1000, period_s=0.2,
                      amplitude=1.0),
        bursty_trace(requests=500, on_rps=4000, off_rps=50, on_s=0.01,
                     off_s=0.04),
    ], ids=lambda trace: trace.kind)
    def test_inlined_draws_equal_expovariate(self, trace, seed):
        """The generators inline ``rng.expovariate``: the same instants,
        bit for bit, as drawing each gap through it."""
        assert list(arrival_times_ns(trace, seed)) == _expovariate_times(
            trace, seed
        )

    def test_same_seed_same_trace(self):
        spec = diurnal_trace(requests=100, mean_rps=500, period_s=1.0)
        assert (list(arrival_times_ns(spec, seed=3))
                == list(arrival_times_ns(spec, seed=3)))

    def test_different_seeds_differ(self):
        spec = poisson_trace(requests=50, mean_rps=500)
        assert (list(arrival_times_ns(spec, seed=1))
                != list(arrival_times_ns(spec, seed=2)))

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            diurnal_trace(requests=10, mean_rps=100, amplitude=1.5)
        with pytest.raises(ValueError):
            bursty_trace(requests=10, on_rps=100, off_rps=200)
        with pytest.raises(ValueError):
            list(arrival_times_ns(
                poisson_trace(requests=10, mean_rps=0.0), seed=0
            ))

    def test_zipf_mix_is_seeded_and_skewed(self):
        spec = poisson_trace(requests=1, mean_rps=1.0, zipf_s=1.1)
        apps = ["redis", "memcached", "nginx"]
        mix = zipf_app_mix(apps, spec, seed=11)
        draws = [next(mix) for _ in range(600)]
        rerun = zipf_app_mix(apps, spec, seed=11)
        assert draws == [next(rerun) for _ in range(600)]
        counts = {app: draws.count(app) for app in apps}
        # Rank 0 carries the largest Zipf weight.
        assert counts["redis"] > counts["nginx"]
        with pytest.raises(ValueError):
            next(zipf_app_mix([], spec, seed=0))

    def test_zipf_mix_draws_what_random_choices_draws(self):
        from repro.traffic.arrivals import _mix_rng

        apps = curated_apps()
        for zipf_s in (0.5, 1.1, 2.0):
            spec = poisson_trace(requests=1, mean_rps=1.0, zipf_s=zipf_s)
            weights = [1.0 / (rank + 1) ** zipf_s
                       for rank in range(len(apps))]
            rng = _mix_rng(7)
            mix = zipf_app_mix(apps, spec, seed=7)
            assert [next(mix) for _ in range(3000)] == [
                rng.choices(apps, weights=weights, k=1)[0]
                for _ in range(3000)
            ]

    def test_curated_apps_are_popularity_ranked_serving_profiles(self):
        from repro.apps.registry import top20_in_popularity_order

        apps = curated_apps()
        assert apps  # the Zipf mix needs at least one profile
        ranked = [app.name for app in top20_in_popularity_order()]
        assert apps == [name for name in ranked if name in apps]


class TestArrivalSourceClockAgreement:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000),
           kind=st.sampled_from(["poisson", "diurnal", "bursty"]))
    def test_take_follows_each_draw_in_trace_order(self, seed, kind):
        """The property both branches of the arrivals program rely on:
        each draw is taken once the clock reaches it, in trace order."""
        from repro.simcore.clock import VirtualClock

        trace = {
            "poisson": poisson_trace(requests=20, mean_rps=2000),
            "diurnal": diurnal_trace(requests=20, mean_rps=2000,
                                     period_s=0.5, amplitude=1.0),
            "bursty": bursty_trace(requests=20, on_rps=4000, off_rps=100,
                                   on_s=0.01, off_s=0.04),
        }[kind]
        clock = VirtualClock()
        source = ArrivalSource(trace, seed, clock, ["redis", "nginx"])
        delivered = []
        while True:
            deadline = source.arm_next()
            if deadline is None:
                break
            clock.advance_to(deadline)
            arrival = source.take()
            assert arrival.arrival_ns == deadline
            delivered.append(arrival)
        assert len(delivered) == 20
        assert [a.index for a in delivered] == list(range(20))
        instants = [a.arrival_ns for a in delivered]
        assert instants == sorted(instants)


    def test_take_hands_over_the_drawn_arrival_once_reached(self):
        from repro.simcore.clock import VirtualClock

        clock = VirtualClock()
        source = ArrivalSource(poisson_trace(requests=2, mean_rps=1000), 1,
                               clock, ["redis"])
        deadline = source.arm_next()
        with pytest.raises(RuntimeError):
            source.take()  # the clock has not reached it
        clock.advance_to(deadline)
        arrival = source.take()
        assert (arrival.index, arrival.arrival_ns) == (0, deadline)
        with pytest.raises(RuntimeError):
            source.take()  # handed over once

    def test_lookahead_is_the_next_trace_instant(self):
        from repro.simcore.clock import VirtualClock

        trace = bursty_trace(requests=30, on_rps=4000, off_rps=100,
                             on_s=0.01, off_s=0.04)
        clock = VirtualClock()
        source = ArrivalSource(trace, 5, clock, ["redis"])
        times = list(arrival_times_ns(trace, seed=5))
        armed = []
        while True:
            lookahead = source.lookahead_ns
            deadline = source.arm_next()
            assert deadline == lookahead
            if deadline is None:
                break
            armed.append(deadline)
            clock.advance_to(deadline)
            source.take()
        assert armed == times


class TestWarmPoolPolicy:
    def test_presets_are_named(self):
        assert named_policy("scale-to-zero") is SCALE_TO_ZERO
        assert named_policy("fixed-pool") is FIXED_POOL
        assert policy_names() == ["fixed-pool", "scale-to-zero"]
        with pytest.raises(ValueError, match="unknown warm-pool policy"):
            named_policy("nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmPoolPolicy(name="bad", idle_timeout_s=0.0)
        with pytest.raises(ValueError):
            WarmPoolPolicy(name="bad", min_warm=-1)
        with pytest.raises(ValueError):
            WarmPoolPolicy(name="bad", max_per_app=0)

    def test_overrides_and_timeout_ns(self):
        policy = SCALE_TO_ZERO.with_overrides(idle_timeout_s=2.0,
                                              max_total=5)
        assert policy.idle_timeout_ns == 2e9
        assert policy.max_total == 5
        assert policy.name == SCALE_TO_ZERO.name
        assert FIXED_POOL.idle_timeout_ns is None
        assert SCALE_TO_ZERO.to_manifest()["pre_warm"] == 0


class TestServingDeterminism:
    @pytest.mark.parametrize("policy", [SCALE_TO_ZERO, FIXED_POOL],
                             ids=lambda p: p.name)
    def test_same_spec_byte_identical_manifest(self, policy):
        """The acceptance contract: same seed => byte-identical digest,
        asserted across both warm-pool policy presets."""
        spec = ServeSpec(trace=SMALL_TRACE, policy=policy, seed=42)
        first = run_serving(spec)
        second = run_serving(spec)
        assert first.manifest() == second.manifest()
        assert first.manifest_digest == second.manifest_digest
        assert first.served == SMALL_TRACE.requests

    def test_scale_to_zero_surfaces_cold_boots_in_the_tail(self):
        report = run_serving(
            ServeSpec(trace=SMALL_TRACE, policy=SCALE_TO_ZERO, seed=42)
        )
        assert report.cold_start_fraction > 0.0
        assert report.guests_spawned == report.cold_starts > 0
        latency = report.latency_ms
        assert 0.0 < latency["p50"] <= latency["p99"] <= latency["p999"]
        # A cold boot costs ~70 virtual ms (Fig 7); the warm path is
        # microseconds.  The max must carry the boot.
        assert latency["max"] > 50.0

    def test_prewarmed_pool_absorbs_cold_starts(self):
        cold = run_serving(
            ServeSpec(trace=SMALL_TRACE, policy=SCALE_TO_ZERO, seed=42)
        )
        warm = run_serving(
            ServeSpec(trace=SMALL_TRACE, policy=FIXED_POOL, seed=42)
        )
        assert warm.cold_start_fraction < cold.cold_start_fraction
        assert warm.latency_ms["p999"] <= cold.latency_ms["p999"]
        # Keepalive is paid in guest-seconds, not latency.
        assert warm.guest_seconds > 0.0

    def test_different_policies_still_serve_identical_traffic(self):
        """The trace is open-loop: policy changes the serving side only,
        never which requests arrive (seed-determined)."""
        cold = run_serving(
            ServeSpec(trace=SMALL_TRACE, policy=SCALE_TO_ZERO, seed=7)
        )
        warm = run_serving(
            ServeSpec(trace=SMALL_TRACE, policy=FIXED_POOL, seed=7)
        )
        assert cold.served == warm.served == SMALL_TRACE.requests
        assert cold.dropped == warm.dropped == 0

    def test_manifest_shape(self):
        from repro.traffic.serve import SERVE_SCHEMA_VERSION

        report = run_serving(
            ServeSpec(trace=SMALL_TRACE, policy=SCALE_TO_ZERO, seed=1)
        )
        manifest = report.manifest()
        assert manifest["schema_version"] == SERVE_SCHEMA_VERSION == 2
        assert manifest["trace"]["kind"] == "diurnal"
        assert manifest["policy"]["name"] == "scale-to-zero"
        assert set(manifest["latency_ms"]) == {
            "p50", "p99", "p999", "max", "mean"
        }
        assert manifest["guests"]["spawned"] == report.guests_spawned
        for app, entry in manifest["per_app"].items():
            assert set(entry) == {"requests", "cold_starts", "spawned"}
        # Schema v2: the resilience knobs and the availability section.
        assert manifest["resilience"]["retry_budget"] == 2
        availability = manifest["availability"]
        assert set(availability) == {
            "arrivals", "completed", "dropped", "failed", "shed",
            "error_rate", "shed_rate", "failed_reasons", "shed_reasons",
            "retries", "restarts", "guest_crashes", "guest_hangs",
            "boot_failures", "watchdog_kills", "quarantines",
            "breaker_opens", "goodput_rps",
        }
        assert availability["arrivals"] == SMALL_TRACE.requests
        # Zero-fault run: no availability events at all.
        assert availability["failed"] == availability["shed"] == 0
        assert availability["retries"] == availability["restarts"] == 0
        assert manifest["guests"]["failed"] == 0
        assert availability["goodput_rps"] > 0.0
        # Conservation, as written into the manifest itself.
        assert availability["arrivals"] == (
            manifest["served"] + availability["failed"]
            + availability["shed"] + manifest["dropped"]
        )
        # Execution counters stay outside the manifest.
        assert "eventcore" not in json.dumps(manifest)
        assert report.eventcore_stats is not None

    def test_latency_histogram_observes_every_served_request(self):
        from repro.observe import METRICS
        from repro.traffic.serve import REQUEST_LATENCY_MS_BUCKETS

        histogram = METRICS.histogram("traffic.request_latency_ms",
                                      REQUEST_LATENCY_MS_BUCKETS)
        before = histogram.to_dict()
        report = run_serving(
            ServeSpec(trace=SMALL_TRACE, policy=SCALE_TO_ZERO, seed=42)
        )
        after = histogram.to_dict()
        assert after["count"] - before["count"] == report.served
        # Cold starts carry a ~70 ms boot: the tail buckets hold them.
        cold = sum(after_count - before_count for (bound, after_count),
                   (_, before_count) in zip(after["buckets"],
                                            before["buckets"])
                   if bound is None or bound > 50.0)
        assert cold >= report.cold_starts > 0


class TestRouterQueueing:
    def test_capacity_queueing_drains_in_order(self):
        """With capacity 1, arrivals during the 70 ms cold boot queue
        FIFO and drain through the single worker."""
        from repro.core.orchestrator import KernelOrchestrator
        from repro.simcore.eventcore import EventCore
        from repro.traffic.router import Router
        from repro.traffic.serve import _arrivals_program

        trace = poisson_trace(requests=30, mean_rps=2000)
        policy = WarmPoolPolicy(name="tiny", idle_timeout_s=None,
                                max_per_app=1, max_total=1)
        core = EventCore()
        router = Router(core=core, orchestrator=KernelOrchestrator(),
                        policy=policy, apps=["redis"])
        source = ArrivalSource(trace, 5, core.clock_for("arrivals"),
                               ["redis"])
        arrived_ns = []
        dispatch = router.dispatch

        def record_arrival(arrival):
            arrived_ns.append(arrival.arrival_ns)
            dispatch(arrival)

        router.dispatch = record_arrival
        core.spawn("arrivals", _arrivals_program(source, router))
        core.run()
        router.finalize()
        core.run()
        assert len(router.latencies_ns) == 30
        assert router.served_by_app == {"redis": 30}
        # Only the first request waited for the cold boot.
        assert router.cold_by_app == {"redis": 1}
        assert router.spawned == 1
        assert router.queued > 0
        assert router.queue_high_water >= 1
        # Served in arrival order: the backlog is FIFO, so pairing the
        # latencies (in serving order) with the arrivals (in arrival
        # order) gives the one worker's completion instants, which rise
        # by at least one request's service time each.
        done_ns = [at + latency
                   for at, latency in zip(arrived_ns, router.latencies_ns)]
        service_ns = done_ns[-1] - done_ns[-2]
        assert service_ns > 0
        assert all(later - earlier >= service_ns * 0.5
                   for earlier, later in zip(done_ns, done_ns[1:]))
        # Queued requests' latency includes their wait.
        assert router.latencies_ns[1] < router.latencies_ns[0]


class TestArrivalFaultSite:
    def test_injected_fault_drops_the_arrival(self):
        from repro.faults import FaultPlane, activated

        spec = ServeSpec(trace=SMALL_TRACE, policy=FIXED_POOL, seed=9)
        plane = FaultPlane(seed=1)
        plane.configure("traffic.arrival", nth_calls=(3, 10),
                        max_injections=2)
        with activated(plane):
            report = run_serving(spec)
        assert report.dropped == 2
        assert report.served == SMALL_TRACE.requests - 2
        assert plane.injected == 2

    def test_fault_drop_is_deterministic(self):
        from repro.faults import FaultPlane, activated

        spec = ServeSpec(trace=SMALL_TRACE, policy=SCALE_TO_ZERO, seed=9)
        digests = []
        for _ in range(2):
            plane = FaultPlane(seed=1)
            plane.configure("traffic.arrival", nth_calls=(5,),
                            max_injections=1)
            with activated(plane):
                digests.append(run_serving(spec).manifest_digest)
        assert digests[0] == digests[1]


class TestPercentiles:
    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile_ns(samples, 0.50) == 5.0
        assert percentile_ns(samples, 0.99) == 10.0
        assert percentile_ns(samples, 0.001) == 1.0
        assert percentile_ns([], 0.5) == 0.0
        assert percentile_ns([42.0], 0.999) == 42.0


class TestBenchServe:
    def test_committed_baseline_passes_the_checker(self):
        from repro.traffic.bench import check_result

        baseline = REPO_ROOT / "benchmarks" / "baseline" / "BENCH_serve.json"
        result = json.loads(baseline.read_text(encoding="utf-8"))
        assert check_result(result) == []

    def test_checker_flags_nondeterminism_and_low_churn(self):
        from repro.traffic.bench import check_result

        baseline = REPO_ROOT / "benchmarks" / "baseline" / "BENCH_serve.json"
        result = json.loads(baseline.read_text(encoding="utf-8"))
        result["digests"][
            "serve.manifest_digest48.serve_scale_to_zero.rerun"
        ] = "0" * 12
        result["gauges"]["serve.guests_spawned.serve_scale_to_zero"] = 12.0
        failures = check_result(result)
        assert any("not deterministic" in f for f in failures)
        assert any("1000" in f for f in failures)

    def test_checker_flags_faulted_fixed_pool_regressions(self):
        from repro.traffic.bench import check_result
        from repro.traffic.chaos import SERVE_CHAOS_RATES

        baseline = REPO_ROOT / "benchmarks" / "baseline" / "BENCH_serve.json"
        result = json.loads(baseline.read_text(encoding="utf-8"))
        assert "serve.manifest_digest48.serve_chaos_fixed_pool" in (
            result["digests"]
        )
        result["digests"][
            "serve.manifest_digest48.serve_chaos_fixed_pool.rerun"
        ] = "0" * 12
        failures = check_result(result)
        assert any("serve_chaos_fixed_pool is not deterministic" in f
                   for f in failures)

        result = json.loads(baseline.read_text(encoding="utf-8"))
        result["gauges"]["serve.error_rate.serve_chaos_fixed_pool"] = sum(
            SERVE_CHAOS_RATES.values()
        )
        failures = check_result(result)
        assert any("serve_chaos_fixed_pool error rate" in f
                   for f in failures)

    def test_checker_flags_a_lost_warm_hit_fold(self):
        from repro.traffic.bench import check_result

        baseline = REPO_ROOT / "benchmarks" / "baseline" / "BENCH_serve.json"
        # Three events per request: every arrival and warm hit stepped;
        # 1.03: warm hits folded, every arrival its own event.
        for events in (300_083, 103_274):
            result = json.loads(baseline.read_text(encoding="utf-8"))
            result["counters"][
                "eventcore.events_dispatched.serve_fixed_pool"
            ] = events
            failures = check_result(result)
            assert [f for f in failures if "must fold" in f] == [
                f"serve_fixed_pool dispatched {events} events for 100000 "
                "served requests; arrivals must fold into the running "
                "arrivals event and warm hits into their arrival's "
                "dispatch (<= 0.25 events per request)"
            ]

    def test_checker_flags_missing_tail_buyback(self):
        from repro.traffic.bench import check_result

        baseline = REPO_ROOT / "benchmarks" / "baseline" / "BENCH_serve.json"
        result = json.loads(baseline.read_text(encoding="utf-8"))
        result["gauges"]["serve.latency_p999_ms.serve_fixed_pool"] = (
            result["gauges"]["serve.latency_p999_ms.serve_scale_to_zero"]
        )
        failures = check_result(result)
        assert any("buy the tail back" in f for f in failures)
