"""Tests for the regression gate (threshold boundaries pinned exactly)."""

import json

from repro.observe.regress import compare_runs, is_cost_counter, main


def _metrics(**counters):
    return {"counters": counters, "gauges": {}, "histograms": {}}


def _manifest(total_ms, experiments=()):
    return {
        "total_wall_ms": total_ms,
        "experiments": [
            {"name": name, "wall_ms": wall} for name, wall in experiments
        ],
    }


class TestThresholdBoundaries:
    def test_identical_runs_pass(self):
        metrics = _metrics(**{"buildcache.misses": 7})
        manifest = _manifest(100.0, [("fig7", 50.0)])
        report = compare_runs(metrics, metrics, manifest, manifest)
        assert report.passed

    def test_exactly_at_threshold_passes(self):
        # 10% threshold, 100 -> 110: exactly at the bound, strict >.
        report = compare_runs(
            _metrics(**{"buildcache.misses": 100}),
            _metrics(**{"buildcache.misses": 110}),
            threshold=0.10,
        )
        assert report.passed

    def test_just_past_threshold_fails(self):
        report = compare_runs(
            _metrics(**{"buildcache.misses": 100}),
            _metrics(**{"buildcache.misses": 111}),
            threshold=0.10,
        )
        assert not report.passed
        (regression,) = report.regressions
        assert regression.name == "buildcache.misses"

    def test_timing_exactly_at_threshold_passes(self):
        report = compare_runs(
            _metrics(), _metrics(),
            _manifest(1000.0), _manifest(1100.0),
            threshold=0.10, min_ms=5.0,
        )
        assert report.passed

    def test_timing_slowdown_past_threshold_fails(self):
        report = compare_runs(
            _metrics(), _metrics(),
            _manifest(1000.0), _manifest(1200.0),
            threshold=0.10, min_ms=5.0,
        )
        assert [d.name for d in report.regressions] == ["total_wall_ms"]

    def test_min_ms_absorbs_tiny_absolute_slowdowns(self):
        # 3x slower but only 2 ms absolute: below min_ms, passes.
        report = compare_runs(
            _metrics(), _metrics(),
            _manifest(10.0, [("fig5", 1.0)]),
            _manifest(10.0, [("fig5", 3.0)]),
            threshold=0.10, min_ms=5.0,
        )
        assert report.passed

    def test_per_experiment_slowdown_fails(self):
        report = compare_runs(
            _metrics(), _metrics(),
            _manifest(100.0, [("fig7", 100.0)]),
            _manifest(100.0, [("fig7", 200.0)]),
            threshold=0.10, min_ms=5.0,
        )
        assert [d.name for d in report.regressions] == ["experiment:fig7"]


class TestGateSemantics:
    def test_non_cost_counters_never_fail(self):
        report = compare_runs(
            _metrics(**{"buildcache.hits": 10}),
            _metrics(**{"buildcache.hits": 1000}),
        )
        assert report.passed

    def test_cost_counter_classification(self):
        assert is_cost_counter("harness.result_cache.misses")
        assert is_cost_counter("kernel_builds.performed")
        assert is_cost_counter("kconfig.resolutions")
        assert is_cost_counter("boot.boots")
        assert not is_cost_counter("buildcache.hits")
        assert not is_cost_counter("eventcore.parks")

    def test_counters_missing_from_current_are_skipped(self):
        report = compare_runs(
            _metrics(**{"buildcache.misses": 5, "gone.misses": 1}),
            _metrics(**{"buildcache.misses": 5}),
        )
        assert report.passed
        assert [d.name for d in report.deltas] == ["buildcache.misses"]

    def test_no_timings_skips_manifests(self):
        report = compare_runs(
            _metrics(), _metrics(),
            _manifest(100.0), _manifest(900.0),
            timings=False,
        )
        assert report.passed and report.deltas == []

    def test_hot_loop_counters_are_costs(self):
        # Bare names and the per-section variants the benchmark
        # documents carry (BENCH_serve.json, BENCH_guests.json).
        for name in ("eventcore.events_dispatched",
                     "eventcore.events_dispatched.serve_fixed_pool",
                     "eventcore.kicks.serve_scale_to_zero",
                     "boot.boots.fleet_general"):
            assert is_cost_counter(name), name

    def test_doubled_dispatched_events_fail_the_gate(self):
        name = "eventcore.events_dispatched.serve_fixed_pool"
        report = compare_runs(_metrics(**{name: 300083}),
                              _metrics(**{name: 2 * 300083}))
        assert [d.name for d in report.regressions] == [name]

    def test_shrinking_hot_loop_counters_pass(self):
        names = ("eventcore.events_dispatched.serve_scale_to_zero",
                 "eventcore.kicks.serve_scale_to_zero",
                 "boot.boots.serve_scale_to_zero")
        report = compare_runs(_metrics(**{n: 1000 for n in names}),
                              _metrics(**{n: 500 for n in names}))
        assert report.passed
        assert len(report.deltas) == len(names)

    def test_zero_baseline_growth_is_regression(self):
        report = compare_runs(
            _metrics(**{"buildcache.misses": 0}),
            _metrics(**{"buildcache.misses": 1}),
        )
        assert not report.passed


class TestRegressDigestGate:
    def test_digest_drift_fails_the_gate(self):
        baseline = {"counters": {}, "digests": {"fleet.d": "aaa"}}
        matching = compare_runs(baseline, {"counters": {},
                                           "digests": {"fleet.d": "aaa"}})
        assert matching.passed
        drifted = compare_runs(baseline, {"counters": {},
                                          "digests": {"fleet.d": "bbb"}})
        assert not drifted.passed
        assert drifted.regressions[0].kind == "digest"

    def test_baseline_digests_gate_skips_new_sections(self):
        report = compare_runs(
            {"counters": {}, "digests": {}},
            {"counters": {}, "digests": {"fleet.new": "ccc"}},
        )
        assert report.passed and report.deltas == []

    def test_missing_pinned_digest_fails_the_gate(self):
        # A benchmark that stops emitting a pinned scenario must be
        # re-pinned on purpose, not pass because nothing was compared.
        report = compare_runs(
            {"counters": {}, "digests": {"fleet.kept": "aaa",
                                         "fleet.gone": "bbb"}},
            {"counters": {}, "digests": {"fleet.kept": "aaa"}},
        )
        assert not report.passed
        (regression,) = report.regressions
        assert (regression.kind, regression.name, regression.baseline) == (
            "digest", "fleet.gone", "bbb"
        )
        assert "[REGRESSED] digest  fleet.gone: bbb -> " in report.render()


class TestCliEntrypoint:
    def _write_run(self, directory, counters, total_ms):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "metrics.json").write_text(
            json.dumps(_metrics(**counters))
        )
        (directory / "run_manifest.json").write_text(
            json.dumps(_manifest(total_ms))
        )

    def test_identical_runs_exit_zero(self, tmp_path, capsys):
        self._write_run(tmp_path / "a", {"buildcache.misses": 3}, 100.0)
        assert main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
        assert "0 regressed" in capsys.readouterr().out

    def test_injected_slowdown_exits_nonzero(self, tmp_path, capsys):
        self._write_run(tmp_path / "base", {"buildcache.misses": 3}, 100.0)
        self._write_run(tmp_path / "cur", {"buildcache.misses": 3}, 200.0)
        assert main([str(tmp_path / "base"), str(tmp_path / "cur")]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_no_timings_ignores_wall_clock(self, tmp_path):
        self._write_run(tmp_path / "base", {"buildcache.misses": 3}, 100.0)
        self._write_run(tmp_path / "cur", {"buildcache.misses": 3}, 200.0)
        assert main(
            [str(tmp_path / "base"), str(tmp_path / "cur"), "--no-timings"]
        ) == 0

    def test_metrics_file_paths_accepted(self, tmp_path):
        self._write_run(tmp_path / "a", {"buildcache.misses": 3}, 100.0)
        metrics_file = str(tmp_path / "a" / "metrics.json")
        assert main([metrics_file, metrics_file]) == 0

    def test_missing_input_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope"), str(tmp_path / "nope")]) == 2
        assert "cannot load" in capsys.readouterr().err
