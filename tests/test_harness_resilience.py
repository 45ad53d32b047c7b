"""Tests for harness failure containment, retries, and timeouts.

Covers the tentpole resilience invariants: one failing experiment never
aborts the run, transient faults are retried under the RetryPolicy,
hangs/deadlines become ``timed_out``, the schema-v3 manifest always
lands with a definite per-experiment status, and fault-free runs remain
byte-identical to the pre-fault-plane harness.
"""

import json

import pytest

from repro import faults
from repro.faults import FaultPlane
from repro.harness import Artifact, Experiment, run_experiments
from repro.harness.runner import RetryPolicy
from repro.observe import METRICS, TRACER

#: Cheap real experiments to run alongside synthetic failing ones.
FAST_IDS = ["fig4", "fig5", "table3"]


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    faults.deactivate()
    yield
    faults.deactivate()


def _synthetic(name, calls, body=None):
    """A registry-free experiment recording its executions in *calls*."""

    def _run():
        calls.append(name)
        if body is not None:
            body()
        return {"value": len(calls)}

    return Experiment(
        name=name,
        run_fn=_run,
        artifact_fn=lambda: Artifact(text=f"{name}: ran {len(calls)} times"),
        fingerprint_fn=lambda: "ffff",
    )


def _counter(name):
    return METRICS.counter(name).value


class TestFailureContainment:
    def test_failing_experiment_isolated(self, tmp_path):
        calls = []

        def _boom():
            raise ValueError("experiment body exploded")

        experiments = [
            _synthetic("good-a", calls),
            _synthetic("bad", calls, body=_boom),
            _synthetic("good-b", calls),
        ]
        run = run_experiments(
            experiments=experiments,
            output_dir=tmp_path / "out", cache_dir=tmp_path / "cache",
        )
        # The healthy experiments' results and outputs all landed.
        assert list(run.results) == ["good-a", "good-b"]
        assert (tmp_path / "out" / "good_a.txt").exists()
        assert (tmp_path / "out" / "good_b.txt").exists()
        assert not (tmp_path / "out" / "bad.txt").exists()
        # The failure is a structured outcome, not an exception.
        assert not run.ok
        assert run.failures == {"bad": "ValueError: experiment body exploded"}
        entry = next(e for e in run.telemetry.experiments if e.name == "bad")
        assert entry.status == "failed"
        assert entry.attempts == 1  # ValueError is persistent: no retry
        # The manifest still landed, complete and schema-v3.
        manifest = json.loads(run.manifest_path.read_text())
        assert manifest["schema_version"] == 3
        assert "jobs" not in manifest and "effective_jobs" not in manifest
        assert manifest["failures"] == 1
        statuses = {e["name"]: e["status"] for e in manifest["experiments"]}
        assert statuses == {"good-a": "ok", "bad": "failed", "good-b": "ok"}
        assert (tmp_path / "out" / "trace.json").exists()
        assert (tmp_path / "out" / "metrics.json").exists()

    def test_manifest_written_when_everything_fails(self, tmp_path):
        def _boom():
            raise RuntimeError("nope")

        run = run_experiments(
            experiments=[_synthetic("bad", [], body=_boom)],
            output_dir=tmp_path / "out", cache_dir=tmp_path / "cache",
        )
        assert run.results == {}
        manifest = json.loads(run.manifest_path.read_text())
        assert manifest["experiments"][0]["status"] == "failed"
        assert manifest["experiments"][0]["error"] == "RuntimeError: nope"

    def test_failed_status_span_attrs_only_on_abnormal(self, tmp_path):
        mark = TRACER.mark()
        run_experiments(
            experiments=[_synthetic("fine", [])],
            write_outputs=False, use_result_cache=False,
        )
        spans = [r for r in TRACER.records_since(mark)
                 if r.name == "experiment:fine"]
        assert spans and "status" not in spans[0].attrs
        assert "attempts" not in spans[0].attrs


class TestRetries:
    def test_transient_fault_retried_to_success(self, tmp_path):
        calls = []
        plane = FaultPlane(seed=0)
        plane.one_shot("experiment.run")
        retries_before = _counter("harness.retries")
        with faults.activated(plane):
            run = run_experiments(
                experiments=[_synthetic("flaky", calls)],
                output_dir=tmp_path / "out", cache_dir=tmp_path / "cache",
            )
        # The fault fires on entering the site, before the body: the body
        # itself ran once, on the successful second attempt.
        assert calls == ["flaky"]
        entry = run.telemetry.experiments[0]
        assert entry.status == "ok"
        assert entry.attempts == 2
        assert entry.error is None
        assert run.results["flaky"] == {"value": 1}
        assert _counter("harness.retries") == retries_before + 1

    def test_transient_exhaustion_ends_failed(self, tmp_path):
        plane = FaultPlane(seed=0)
        plane.configure("experiment.run", nth_calls=(1, 2, 3))
        failures_before = _counter("harness.failures")
        with faults.activated(plane):
            run = run_experiments(
                experiments=[_synthetic("doomed", [])],
                write_outputs=False, use_result_cache=False,
                retry_policy=RetryPolicy(max_attempts=3),
            )
        entry = run.telemetry.experiments[0]
        assert entry.status == "failed"
        assert entry.attempts == 3
        assert "injected fault" in entry.error
        assert _counter("harness.failures") == failures_before + 1

    def test_backoff_advances_simulated_clock(self, tmp_path):
        plane = FaultPlane(seed=0)
        plane.configure("experiment.run", nth_calls=(1, 2))
        sim_before = TRACER.sim.now_ms
        with faults.activated(plane):
            run_experiments(
                experiments=[_synthetic("flaky", [])],
                write_outputs=False, use_result_cache=False,
                retry_policy=RetryPolicy(max_attempts=3, backoff_ms=50.0),
            )
        # Two retries: 50 * 1 + 50 * 2 = 150 simulated ms, no host sleep.
        assert TRACER.sim.now_ms - sim_before == pytest.approx(150.0)


class TestTimeouts:
    def test_injected_hang_marks_timed_out(self, tmp_path):
        plane = FaultPlane(seed=0)
        plane.one_shot("experiment.run", kind="hang", hang_ms=180_000.0)
        timeouts_before = _counter("harness.timeouts")
        with faults.activated(plane):
            run = run_experiments(
                experiments=[_synthetic("hung", [])],
                output_dir=tmp_path / "out", cache_dir=tmp_path / "cache",
            )
        entry = run.telemetry.experiments[0]
        assert entry.status == "timed_out"
        assert entry.attempts == 1  # hangs are never retried
        assert "injected hang" in entry.error
        assert _counter("harness.timeouts") == timeouts_before + 1
        manifest = json.loads(run.manifest_path.read_text())
        assert manifest["experiments"][0]["status"] == "timed_out"

    def test_sim_deadline_marks_timed_out(self):
        def _slow_then_crash():
            TRACER.sim.advance(5_000.0)
            raise ValueError("ran too long")

        run = run_experiments(
            experiments=[_synthetic("runaway", [], body=_slow_then_crash)],
            write_outputs=False, use_result_cache=False,
            retry_policy=RetryPolicy(deadline_ms=1_000.0),
        )
        assert run.telemetry.experiments[0].status == "timed_out"


class TestCacheFaults:
    def test_corrupt_load_is_a_miss_and_reruns(self, tmp_path):
        calls = []
        kwargs = dict(
            write_outputs=False, cache_dir=tmp_path / "cache",
        )
        run_experiments(experiments=[_synthetic("exp", calls)], **kwargs)
        assert calls == ["exp"]

        plane = FaultPlane(seed=0)
        plane.one_shot("resultcache.load", kind="corrupt")
        with faults.activated(plane):
            warm = run_experiments(
                experiments=[_synthetic("exp", calls)], **kwargs
            )
        # The truncated entry parsed as a miss: re-ran and re-stored.
        assert calls == ["exp", "exp"]
        assert warm.telemetry.experiments[0].status == "ok"
        # The re-store healed the cache: the next run hits.
        final = run_experiments(experiments=[_synthetic("exp", calls)],
                                **kwargs)
        assert calls == ["exp", "exp"]
        assert final.telemetry.experiments[0].status == "cache_hit"

    def test_store_fault_retried_and_leaves_no_debris(self, tmp_path):
        calls = []
        plane = FaultPlane(seed=0)
        plane.one_shot("resultcache.store")
        with faults.activated(plane):
            run = run_experiments(
                experiments=[_synthetic("exp", calls)],
                write_outputs=False, cache_dir=tmp_path / "cache",
            )
        entry = run.telemetry.experiments[0]
        assert entry.status == "ok"
        assert entry.attempts == 2
        assert calls == ["exp", "exp"]
        # No truncated/temporary files survived the injected store failure.
        leftovers = sorted(p.name for p in (tmp_path / "cache").iterdir())
        assert leftovers == ["exp.json"]
        json.loads((tmp_path / "cache" / "exp.json").read_text())


class TestFaultFreeTransparency:
    def test_no_plane_runs_are_byte_identical(self, tmp_path):
        names = FAST_IDS
        first = run_experiments(
            names=names, force=True,
            output_dir=tmp_path / "a", cache_dir=tmp_path / "ca",
        )
        second = run_experiments(
            names=names, force=True,
            output_dir=tmp_path / "b", cache_dir=tmp_path / "cb",
        )
        for name in names:
            assert (
                first.output_paths[name].read_bytes()
                == second.output_paths[name].read_bytes()
            )
        assert first.ok and second.ok

    def test_clean_run_reports_zero_resilience_counters(self, tmp_path):
        run = run_experiments(
            names=["fig4"],
            output_dir=tmp_path / "out", cache_dir=tmp_path / "cache",
        )
        metrics = json.loads(run.metrics_path.read_text())
        # Pre-registered as explicit zeros so a baseline can pin them
        # (counters only grow within a process; assert presence).
        for name in ("harness.retries", "harness.failures",
                     "harness.timeouts", "harness.fingerprint_errors",
                     "faults.injected"):
            assert name in metrics["counters"]
