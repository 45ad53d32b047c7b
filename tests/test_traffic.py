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
import pathlib

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
    def test_next_deadline_agrees_with_next_arrival(self, seed, kind):
        """The property the router relies on: after arming, the arrivals
        clock's next deadline IS the next arrival instant."""
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
                assert source.next_arrival_ns is None
                break
            assert source.next_arrival_ns == deadline
            assert clock.next_deadline_ns() == deadline
            clock.advance_to(deadline)
            arrival = source.take()
            assert arrival.arrival_ns == deadline
            delivered.append(arrival)
        assert len(delivered) == 20
        assert [a.index for a in delivered] == list(range(20))
        instants = [a.arrival_ns for a in delivered]
        assert instants == sorted(instants)


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
        core.spawn("arrivals", _arrivals_program(source, router))
        core.run()
        router.finalize()
        core.run()
        assert len(router.samples) == 30
        assert router.spawned == 1
        assert router.queued > 0
        assert router.queue_high_water >= 1
        # Served in arrival order: the backlog is FIFO.
        assert [s.index for s in router.samples] == list(range(30))
        # Queued requests' latency includes their wait.
        assert router.samples[0].cold
        assert router.samples[1].latency_ns < router.samples[0].latency_ns


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

    def test_checker_flags_missing_tail_buyback(self):
        from repro.traffic.bench import check_result

        baseline = REPO_ROOT / "benchmarks" / "baseline" / "BENCH_serve.json"
        result = json.loads(baseline.read_text(encoding="utf-8"))
        result["gauges"]["serve.latency_p999_ms.serve_fixed_pool"] = (
            result["gauges"]["serve.latency_p999_ms.serve_scale_to_zero"]
        )
        failures = check_result(result)
        assert any("buy the tail back" in f for f in failures)
