"""Fleet execution: the cohort oracle and run-level serving fan-out.

The contracts under test:

- **Cohort oracle.** ``Fleet.simulate``'s cohort fold (one
  representative per application, members replayed) is bit-identical to
  the per-guest sequential loop in ``tests/oracles/fleet.py`` -- the full
  manifest and ``build_count`` -- for any seed, fleet size and kernel
  policy, and the loop reproduces the digests ``bench-guests`` pins.
- **The ``bench-guests`` check.** ``repro.simcore.bench.check_result``
  passes the committed baseline and fails, with a message, any document
  that lacks an entry or breaks a scale or kernel-sharing criterion.
- **Hash-seed independence.** Every config-option float fold iterates
  sorted, so digests do not depend on PYTHONHASHSEED.
- **Serving fan-out.** ``run_serving_many`` runs whole serving runs in
  worker processes: the same reports as in-process runs, and each
  worker's counter deltas fold back into the parent process's METRICS
  registry, so a fanned-out sweep costs the same by the counters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.buildcache import BUILD_CACHE
from repro.core.orchestrator import Fleet, KernelPolicy
from repro.kconfig.rescache import RESOLUTION_CACHE
from repro.observe import METRICS
from repro.simcore.bench import FLEET_SEED, check_result
from tests.oracles.fleet import simulate_sequential

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_GUESTS_BASELINE = (
    REPO_ROOT / "benchmarks" / "baseline" / "BENCH_guests.json"
)


class TestCohortOracle:
    def test_cohort_matches_sequential_general(self):
        seq = simulate_sequential(60, seed=7)
        cohort = Fleet.simulate(60, seed=7)
        assert cohort.manifest() == seq.manifest()
        assert cohort.manifest_digest == seq.manifest_digest

    def test_cohort_matches_sequential_per_app(self):
        seq = simulate_sequential(40, policy=KernelPolicy.PER_APP, seed=11)
        cohort = Fleet.simulate(40, policy=KernelPolicy.PER_APP, seed=11)
        assert cohort.manifest() == seq.manifest()
        assert cohort.build_count == seq.build_count

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=1, max_value=40),
           policy=st.sampled_from(list(KernelPolicy)))
    def test_cohort_matches_sequential_for_any_draw(self, seed, count,
                                                    policy):
        seq = simulate_sequential(count, policy=policy, seed=seed)
        cohort = Fleet.simulate(count, policy=policy, seed=seed)
        assert cohort.manifest() == seq.manifest()
        assert cohort.build_count == seq.build_count

    @pytest.mark.parametrize("policy_name,seed", [
        ("GENERAL", 2020),
        ("GENERAL", 77),
        ("PER_APP", 2020),
        ("PER_APP", 77),
    ])
    def test_cohort_matches_sequential_at_scale(self, policy_name, seed):
        """Byte-identical manifests at 1000 guests, two seeds x two
        policies, cohort fold vs the sequential loop."""
        policy = KernelPolicy[policy_name]
        sequential = simulate_sequential(1000, policy=policy, seed=seed)
        cohort = Fleet.simulate(1000, policy=policy, seed=seed)
        assert cohort.manifest_digest == sequential.manifest_digest

    @pytest.mark.parametrize("section,policy_name,count", [
        ("fleet_general", "GENERAL", 1000),
        ("fleet_per_app", "PER_APP", 200),
    ])
    def test_sequential_reproduces_pinned_bench_digests(
            self, section, policy_name, count):
        """The oracle yields the manifest digests ``bench-guests`` pins
        for its cohort-folded fleets (same seed, policy and size)."""
        # Start cold, as the bench does: a kernel two apps share carries
        # the config name of whichever app built it first.
        BUILD_CACHE.reset()
        RESOLUTION_CACHE.reset()
        baseline = json.loads(BENCH_GUESTS_BASELINE.read_text("utf-8"))
        sequential = simulate_sequential(
            count, policy=KernelPolicy[policy_name], seed=FLEET_SEED)
        assert sequential.manifest_digest[:12] == (
            baseline["digests"][f"fleet.manifest_digest48.{section}"])


class TestBenchCheck:
    def _result(self):
        return json.loads(BENCH_GUESTS_BASELINE.read_text("utf-8"))

    def test_committed_baseline_passes(self):
        assert check_result(self._result()) == []

    def test_missing_scenario_fails(self):
        result = self._result()
        for section in result.values():
            for name in [n for n in section
                         if n.endswith(".fleet_general_tenk")]:
                del section[name]
        failures = check_result(result)
        assert failures and "fleet_general_tenk" in failures[0]
        assert "missing" in failures[0]

    def test_one_sided_gauge_fails(self):
        result = self._result()
        del result["gauges"]["fleet.build_count.fleet_per_app"]
        failures = check_result(result)
        assert failures and "fleet.build_count.fleet_per_app" in failures[0]

    def test_small_general_fleet_fails(self):
        result = self._result()
        result["gauges"]["fleet.guests.fleet_general"] = 999.0
        assert any(">= 1000" in f for f in check_result(result))

    def test_unchecked_boot_fails(self):
        result = self._result()
        result["counters"]["vmm.guest_checks.fleet_general"] -= 1
        assert any("monitor-checked" in f for f in check_result(result))

    def test_second_general_kernel_fails(self):
        result = self._result()
        for gauge in ("distinct_kernels", "build_count"):
            result["gauges"][f"fleet.{gauge}.fleet_general"] = 2.0
        assert any("exactly one" in f for f in check_result(result))

    def test_single_per_app_kernel_fails(self):
        result = self._result()
        for gauge in ("distinct_kernels", "build_count"):
            result["gauges"][f"fleet.{gauge}.fleet_per_app"] = 1.0
        assert any("several" in f for f in check_result(result))


class TestHashSeedIndependence:
    def test_digest_identical_under_two_hash_seeds(self):
        script = (
            "from repro.core.orchestrator import Fleet;"
            "print(Fleet.simulate(25, seed=4).manifest_digest)"
        )
        digests = set()
        for hash_seed in ("0", "13"):
            env = dict(os.environ,
                       PYTHONPATH=str(REPO_ROOT / "src"),
                       PYTHONHASHSEED=hash_seed)
            output = subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=REPO_ROOT,
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            digests.add(output)
        assert len(digests) == 1


def _serving_specs():
    from repro.traffic.bench import canonical_trace
    from repro.traffic.policy import FIXED_POOL, SCALE_TO_ZERO
    from repro.traffic.serve import ServeSpec

    trace = canonical_trace(requests=400)
    return [
        ServeSpec(trace=trace, policy=SCALE_TO_ZERO, seed=2020),
        ServeSpec(trace=trace, policy=FIXED_POOL, seed=2020),
    ]


class TestServingRunFanOut:
    def test_run_serving_many_matches_sequential(self):
        from repro.traffic.serve import run_serving, run_serving_many

        specs = _serving_specs()
        fanned = run_serving_many(specs, jobs=2)
        assert [r.manifest_digest for r in fanned] == [
            run_serving(spec).manifest_digest for spec in specs
        ]

    def test_worker_counter_deltas_fold_into_parent(self):
        from repro.traffic.serve import run_serving_many

        names = ("boot.boots", "eventcore.events_dispatched",
                 "traffic.requests_served")

        def deltas(jobs):
            before = {name: METRICS.counter(name).value for name in names}
            run_serving_many(_serving_specs(), jobs=jobs)
            return {
                name: METRICS.counter(name).value - before[name]
                for name in names
            }

        run_serving_many(_serving_specs(), jobs=1)  # warm the caches
        in_process = deltas(1)
        fanned = deltas(2)
        assert fanned == in_process
        assert all(value > 0 for value in in_process.values())
