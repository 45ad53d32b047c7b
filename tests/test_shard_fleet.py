"""Fleet execution: the cohort oracle and run-level serving fan-out.

The contracts under test:

- **Cohort oracle.** The cohort-vectorized fold (one representative per
  application, members replayed) is bit-identical to the per-guest
  sequential loop -- the full manifest and ``build_count`` -- for any
  seed, fleet size and kernel policy.
- **Hash-seed independence.** Every config-option float fold iterates
  sorted, so digests do not depend on PYTHONHASHSEED.
- **Serving fan-out.** ``run_serving_many`` runs whole serving runs in
  worker processes: the same reports as in-process runs, and each
  worker's counter deltas fold back into the parent process's METRICS
  registry, so a fanned-out sweep costs the same by the counters.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.orchestrator import Fleet, KernelPolicy
from repro.observe import METRICS

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestCohortOracle:
    def test_cohort_matches_sequential_general(self):
        seq = Fleet.simulate(60, seed=7)
        cohort = Fleet.simulate(60, seed=7, cohort=True)
        assert cohort.manifest() == seq.manifest()
        assert cohort.manifest_digest == seq.manifest_digest

    def test_cohort_matches_sequential_per_app(self):
        seq = Fleet.simulate(40, policy=KernelPolicy.PER_APP, seed=11)
        cohort = Fleet.simulate(40, policy=KernelPolicy.PER_APP, seed=11,
                                cohort=True)
        assert cohort.manifest() == seq.manifest()
        assert cohort.build_count == seq.build_count

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=1, max_value=40),
           policy=st.sampled_from(list(KernelPolicy)))
    def test_cohort_matches_sequential_for_any_draw(self, seed, count,
                                                    policy):
        seq = Fleet.simulate(count, policy=policy, seed=seed)
        cohort = Fleet.simulate(count, policy=policy, seed=seed,
                                cohort=True)
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
        sequential = Fleet.simulate(1000, policy=policy, seed=seed)
        cohort = Fleet.simulate(1000, policy=policy, seed=seed, cohort=True)
        assert cohort.manifest_digest == sequential.manifest_digest


class TestHashSeedIndependence:
    def test_digest_identical_under_two_hash_seeds(self):
        script = (
            "from repro.core.orchestrator import Fleet;"
            "print(Fleet.simulate(25, seed=4, cohort=True).manifest_digest)"
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
