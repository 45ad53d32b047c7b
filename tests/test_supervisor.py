"""Tests for the self-healing serving plane (``repro.traffic.supervisor``).

Covers the :class:`ResiliencePolicy` knobs, the :class:`CircuitBreaker`
state machine, each guest failure mode end-to-end (``guest.crash`` /
``guest.hang`` / ``guest.boot_fail`` through the real router +
supervisor), crash-loop quarantine, determinism of faulted runs, the
EventCore's contained-failure semantics, the request-conservation
invariant under hypothesis-driven fault schedules, and the fault-site
registry drift tool.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.faults import FaultPlane, activated
from repro.faults.plane import FaultInjected
from repro.traffic.arrivals import diurnal_trace, poisson_trace
from repro.traffic.chaos import default_serving_schedule
from repro.traffic.policy import FIXED_POOL, SCALE_TO_ZERO
from repro.traffic.serve import ServeSpec, run_serving, run_serving_many
from repro.traffic.supervisor import (
    DEFAULT_RESILIENCE,
    CircuitBreaker,
    ResiliencePolicy,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A small trace with enough arrivals for every failure mode to matter.
SMALL_TRACE = diurnal_trace(requests=400, mean_rps=500, period_s=1.6,
                            amplitude=1.0)


def _spec(policy=FIXED_POOL, trace=SMALL_TRACE, seed=9, **overrides):
    resilience = (DEFAULT_RESILIENCE.with_overrides(**overrides)
                  if overrides else DEFAULT_RESILIENCE)
    return ServeSpec(trace=trace, policy=policy, seed=seed,
                     resilience=resilience)


class TestResiliencePolicy:
    def test_defaults_are_valid_and_manifest_canonical(self):
        manifest = DEFAULT_RESILIENCE.to_manifest()
        assert manifest["name"] == "default"
        assert manifest["retry_budget"] == 2
        assert len(manifest) == 14

    def test_overrides(self):
        tweaked = DEFAULT_RESILIENCE.with_overrides(retry_budget=5,
                                                    watchdog_s=0.1)
        assert tweaked.retry_budget == 5
        assert tweaked.watchdog_s == 0.1
        assert tweaked.breaker_window == DEFAULT_RESILIENCE.breaker_window
        assert DEFAULT_RESILIENCE.retry_budget == 2  # frozen original

    @pytest.mark.parametrize("bad", [
        {"watchdog_s": 0.0},
        {"retry_budget": -1},
        {"restart_backoff_s": -0.1},
        {"backoff_multiplier": 0.5},
        {"crash_loop_threshold": 0},
        {"quarantine_s": 0.0},
        {"breaker_threshold": 0.0},
        {"breaker_threshold": 1.5},
        {"breaker_min_samples": 0},
        {"breaker_cooldown_s": 0.0},
        {"shed_queue_depth": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ResiliencePolicy(**bad)


class TestCircuitBreaker:
    POLICY = ResiliencePolicy(breaker_window=8, breaker_min_samples=4,
                              breaker_threshold=0.5, breaker_cooldown_s=1.0)

    def test_closed_admits_and_trips_on_windowed_error_rate(self):
        breaker = CircuitBreaker(self.POLICY)
        assert breaker.state == "closed"
        assert breaker.admit(0.0)
        for _ in range(3):
            breaker.record(True, 0.0)
        assert breaker.state == "closed"  # below min_samples
        breaker.record(True, 10.0)
        assert breaker.state == "open"
        assert breaker.opens == 1
        assert not breaker.admit(10.0 + 0.5e9)  # mid-cooldown

    def test_half_open_probe_closes_or_reopens(self):
        breaker = CircuitBreaker(self.POLICY)
        for _ in range(4):
            breaker.record(True, 0.0)
        assert breaker.admit(2e9)  # past cooldown: the probe
        assert breaker.state == "half_open"
        assert not breaker.admit(2e9)  # only one probe in flight
        breaker.record(False, 2e9)
        assert breaker.state == "closed"
        # And the failing-probe path re-opens for another cooldown:
        # one trip from the window, one from the failed probe.
        for _ in range(4):
            breaker.record(True, 3e9)
        assert breaker.admit(3e9 + 1.5e9)
        breaker.record(True, 3e9 + 1.5e9)
        assert breaker.state == "open"
        assert breaker.opens == 3

    def test_successes_keep_it_closed(self):
        breaker = CircuitBreaker(self.POLICY)
        for _ in range(20):
            breaker.record(False, 0.0)
        breaker.record(True, 0.0)
        assert breaker.state == "closed"


class TestGuestFailureModes:
    def test_crash_fails_over_and_is_retried(self):
        plane = FaultPlane(seed=1)
        plane.configure("guest.crash", nth_calls=(5,), max_injections=1,
                        message="die once")
        with activated(plane):
            report = run_serving(_spec())
        assert report.guest_crashes == 1
        assert report.guests_failed == 1
        assert report.retries >= 1
        assert report.failed == 0  # the retry budget absorbed it
        assert report.served == SMALL_TRACE.requests
        assert report.arrivals == (report.served + report.failed
                                   + report.shed + report.dropped)

    def test_hang_is_watchdog_killed_and_stalls_the_tail(self):
        plane = FaultPlane(seed=1)
        plane.configure("guest.hang", nth_calls=(5,), max_injections=1)
        with activated(plane):
            report = run_serving(_spec())
        assert report.guest_hangs == 1
        assert report.watchdog_kills == 1
        assert report.retries >= 1
        assert report.failed == 0
        # The hung request fails over only after the 0.5 s watchdog, so
        # its retried latency carries the stall.
        assert report.latency_ms["max"] >= (
            DEFAULT_RESILIENCE.watchdog_s * 1e3
        )

    def test_boot_failure_is_healed_by_a_supervisor_restart(self):
        """One request, one corrupted image: the cold boot fails, the
        request retries into the backlog (retries never spawn), and the
        supervisor's backoff probe boots the replacement."""
        trace = poisson_trace(requests=1, mean_rps=100)
        plane = FaultPlane(seed=1)
        plane.configure("guest.boot_fail", nth_calls=(1,), max_injections=1)
        with activated(plane):
            report = run_serving(
                _spec(policy=SCALE_TO_ZERO, trace=trace)
            )
        assert report.boot_failures == 1
        assert report.restarts == 1
        assert report.retries == 1
        assert report.served == 1
        assert report.failed == 0
        # The served request waited out the restart backoff at least.
        assert report.latency_ms["max"] >= (
            DEFAULT_RESILIENCE.restart_backoff_s * 1e3
        )

    def test_retry_budget_exhaustion_fails_the_request(self):
        # Every attempt crashes mid-request, so the request itself is the
        # victim each time and its failure count advances past the budget.
        trace = poisson_trace(requests=1, mean_rps=100)
        plane = FaultPlane(seed=1)
        plane.configure("guest.crash", probability=1.0)
        with activated(plane):
            report = run_serving(
                _spec(policy=SCALE_TO_ZERO, trace=trace, retry_budget=1)
            )
        assert report.served == 0
        assert report.failed == 1
        assert report.failed_reasons.get("retries_exhausted") == 1
        assert report.error_rate == 1.0

    def test_persistent_boot_failure_converges_to_quarantine(self):
        # A boot-failed restart worker has no victims, so the backlogged
        # request cannot burn retries; the consecutive-failure streak
        # must quarantine the app instead of probing forever.
        trace = poisson_trace(requests=1, mean_rps=100)
        plane = FaultPlane(seed=1)
        plane.configure("guest.boot_fail", probability=1.0)
        with activated(plane):
            report = run_serving(
                _spec(policy=SCALE_TO_ZERO, trace=trace, retry_budget=1)
            )
        assert report.served == 0
        assert report.failed == 1
        assert report.quarantines >= 1
        assert report.error_rate == 1.0

    def test_crash_loop_quarantines_the_app(self):
        plane = FaultPlane(seed=1)
        plane.configure("guest.crash", probability=1.0)
        with activated(plane):
            report = run_serving(_spec(
                policy=SCALE_TO_ZERO,
                retry_budget=0,
                crash_loop_threshold=3,
                crash_loop_window_s=60.0,
                quarantine_s=60.0,
                breaker_min_samples=10_000,  # keep the breaker out of it
            ))
        assert report.quarantines >= 1
        assert report.shed_reasons.get("quarantine", 0) > 0
        assert report.served == 0
        assert report.arrivals == (report.served + report.failed
                                   + report.shed + report.dropped)

    def test_breaker_opens_under_sustained_failure(self):
        plane = FaultPlane(seed=1)
        plane.configure("guest.crash", probability=1.0)
        with activated(plane):
            report = run_serving(_spec(
                policy=SCALE_TO_ZERO,
                retry_budget=0,
                breaker_window=8,
                breaker_min_samples=4,
                breaker_threshold=0.5,
                breaker_cooldown_s=5.0,
                crash_loop_threshold=10_000,  # keep quarantine out of it
            ))
        assert report.breaker_opens >= 1
        assert report.shed_reasons.get("breaker", 0) > 0
        assert report.arrivals == (report.served + report.failed
                                   + report.shed + report.dropped)


class TestFaultedDeterminism:
    def test_same_schedule_byte_identical_digests(self):
        digests = []
        for _ in range(2):
            with activated(default_serving_schedule(77)):
                digests.append(run_serving(
                    _spec(policy=SCALE_TO_ZERO)
                ).manifest_digest)
        assert digests[0] == digests[1]

    def test_empty_plane_is_invisible(self):
        clean = run_serving(_spec()).manifest_digest
        with activated(FaultPlane(seed=123)):
            installed = run_serving(_spec()).manifest_digest
        assert installed == clean

    def test_jobs_sweep_matches_sequential(self):
        specs = [_spec(policy=SCALE_TO_ZERO), _spec(policy=FIXED_POOL)]
        with activated(default_serving_schedule(77)):
            sequential = [run_serving(s).manifest_digest for s in specs]
            fanned = [r.manifest_digest
                      for r in run_serving_many(specs, jobs=2)]
        assert fanned == sequential


class TestEventCoreContainment:
    def _core(self):
        from repro.simcore.eventcore import EventCore

        return EventCore()

    def test_injected_fault_kills_only_that_runner(self):
        core = self._core()
        seen = []
        core.on_failure = lambda name, error: seen.append((name, error))

        def doomed():
            with faults.fault_site("test.die"):
                pass
            yield None  # pragma: no cover -- dies before the first yield

        def survivor(clock):
            yield clock.now_ns + 100.0
            yield clock.now_ns + 100.0

        plane = FaultPlane(seed=1)
        plane.configure("test.die", probability=1.0)
        core.spawn("doomed", doomed())
        core.spawn("ok", survivor(core.clock_for("ok")))
        with activated(plane):
            core.run()
        assert core.stats.guest_failures == 1
        assert [name for name, _ in core.failures] == ["doomed"]
        assert isinstance(core.failures[0][1], FaultInjected)
        assert seen == core.failures
        # The survivor ran to completion on its own timeline.
        assert core.clock_for("ok").now_ns == 200.0

    def test_non_injected_exceptions_still_propagate(self):
        core = self._core()

        def broken():
            raise ValueError("a simulator bug, not a fault")
            yield None  # pragma: no cover

        core.spawn("broken", broken())
        with pytest.raises(ValueError, match="simulator bug"):
            core.run()
        assert core.stats.guest_failures == 0


class TestRequestConservation:
    @settings(max_examples=15, deadline=None)
    @given(
        requests=st.integers(1, 60),
        seed=st.integers(0, 99),
        fault_seed=st.integers(0, 99),
        policy=st.sampled_from([SCALE_TO_ZERO, FIXED_POOL]),
    )
    def test_arrivals_settle_exactly_once(self, requests, seed, fault_seed,
                                          policy):
        """arrivals == completed + failed + shed + dropped, exactly,
        under arbitrary fault schedules (run_serving also asserts this
        internally via Router.check_conservation)."""
        trace = poisson_trace(requests=requests, mean_rps=2000)
        plane = FaultPlane(seed=fault_seed)
        plane.configure("guest.crash", probability=0.10)
        plane.configure("guest.hang", probability=0.05)
        plane.configure("guest.boot_fail", probability=0.15)
        plane.configure("traffic.arrival", probability=0.02)
        with activated(plane):
            report = run_serving(ServeSpec(
                trace=trace, policy=policy, seed=seed,
                resilience=DEFAULT_RESILIENCE.with_overrides(
                    watchdog_s=0.05, restart_backoff_s=0.01,
                ),
            ))
        assert report.arrivals == trace.requests
        assert report.arrivals == (report.served + report.failed
                                   + report.shed + report.dropped)


class TestFaultSiteDriftTool:
    SCRIPT = REPO_ROOT / "tools" / "check_fault_sites.py"

    def _load(self):
        spec = importlib.util.spec_from_file_location("check_fault_sites",
                                                      self.SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_repo_has_no_drift(self):
        completed = subprocess.run(
            [sys.executable, str(self.SCRIPT)],
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "ok" in completed.stdout

    def test_wired_sites_include_the_serving_sites(self):
        module = self._load()
        wired = module.wired_sites()
        for site in ("guest.crash", "guest.hang", "guest.boot_fail",
                     "traffic.arrival", "eventcore.dispatch"):
            assert site in wired

    def test_detects_drift_in_both_directions(self, tmp_path):
        module = self._load()
        doc = tmp_path / "RESILIENCE.md"
        # A table documenting one real site and one phantom site.
        doc.write_text(
            "| Site | Where |\n|---|---|\n"
            "| `guest.crash` | somewhere |\n"
            "| `phantom.site` | nowhere |\n",
            encoding="utf-8",
        )
        documented = module.documented_sites(doc)
        assert documented.keys() == {"guest.crash", "phantom.site"}
        wired = set(module.wired_sites())
        assert "phantom.site" not in wired  # would be flagged [unwired]
        assert wired - documented.keys()  # would be flagged [undocumented]
