"""Tests for the trace/metrics exporters and the run-report renderers."""

import json

from repro.harness import run_experiments
from repro.observe.export import (
    chrome_trace,
    experiment_phase_rows,
    load_trace_events,
    render_trace_report,
    self_time_by_name,
    top_self_time,
    write_run_artifacts,
)
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import TickClock, Tracer


def _sample_tracer():
    tracer = Tracer(clock=TickClock(step_us=1000.0))  # 1 ms per reading
    with tracer.span("experiment:fig7", category="harness",
                     experiment="fig7"):
        with tracer.span("execute", category="harness"):
            with tracer.span("kbuild.build", category="kbuild"):
                tracer.sim.advance(3.0)
        with tracer.span("encode", category="harness"):
            pass
    return tracer


class TestChromeTrace:
    def test_events_are_complete_spans(self):
        document = chrome_trace(_sample_tracer().records())
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 4
        for event in spans:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid",
                                  "tid", "args"}
            assert (event["pid"], event["tid"]) == (1, 0)  # one track
            assert event["dur"] >= 0
        assert document["displayTimeUnit"] == "ms"

    def test_parent_indices_reconstruct_tree(self):
        document = chrome_trace(_sample_tracer().records())
        spans = {e["args"]["index"]: e for e in document["traceEvents"]
                 if e["ph"] == "X"}
        execute = next(e for e in spans.values() if e["name"] == "execute")
        build = next(e for e in spans.values()
                     if e["name"] == "kbuild.build")
        assert build["args"]["parent"] == execute["args"]["index"]
        assert spans[execute["args"]["parent"]]["name"] == "experiment:fig7"

    def test_sim_clock_rides_in_args(self):
        document = chrome_trace(_sample_tracer().records())
        build = next(e for e in document["traceEvents"]
                     if e.get("name") == "kbuild.build")
        assert build["args"]["sim_duration_ms"] == 3.0

    def test_round_trips_through_disk(self, tmp_path):
        tracer = _sample_tracer()
        registry = MetricsRegistry()
        registry.counter("kbuild.builds").inc()
        paths = write_run_artifacts(tmp_path, tracer.records(), registry)
        events = load_trace_events(paths["trace"])
        assert [e["name"] for e in events] == [
            "experiment:fig7", "execute", "kbuild.build", "encode",
        ]
        metrics = json.loads(paths["metrics"].read_text())
        assert metrics["counters"]["kbuild.builds"] == 1


class TestAnalysis:
    def test_self_time_subtracts_children(self):
        events = chrome_trace(_sample_tracer().records())["traceEvents"]
        events = [e for e in events if e["ph"] == "X"]
        aggregated = self_time_by_name(events)
        execute = aggregated["execute"]
        build = aggregated["kbuild.build"]
        # execute's total covers the build; its self time excludes it.
        assert execute["total_ms"] > build["total_ms"]
        assert execute["self_ms"] < execute["total_ms"]

    def test_top_self_time_ranked_and_bounded(self):
        events = chrome_trace(_sample_tracer().records())["traceEvents"]
        events = [e for e in events if e["ph"] == "X"]
        top = top_self_time(events, top_n=2)
        assert len(top) == 2
        assert top[0]["self_ms"] >= top[1]["self_ms"]

    def test_phase_rows_group_by_experiment(self):
        events = chrome_trace(_sample_tracer().records())["traceEvents"]
        events = [e for e in events if e["ph"] == "X"]
        rows = experiment_phase_rows(events)
        assert [(r["experiment"], r["phase"]) for r in rows] == [
            ("fig7", "execute"), ("fig7", "encode"),
        ]


class TestHarnessEmission:
    def test_run_all_emits_valid_artifacts(self, tmp_path):
        run = run_experiments(
            names=["fig5", "fig7"],
            output_dir=tmp_path / "out", cache_dir=tmp_path / "cache",
        )
        assert run.trace_path is not None and run.trace_path.is_file()
        assert run.metrics_path is not None and run.metrics_path.is_file()

        document = json.loads(run.trace_path.read_text())
        spans = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        names = {e["name"] for e in spans}
        # Nested build/boot/workload spans from the wired layers.
        assert {"harness.run", "experiment:fig7", "execute",
                "kconfig.resolve", "kbuild.build", "boot.boot"} <= names
        by_index = {e["args"]["index"]: e for e in spans}
        build = next(e for e in spans if e["name"] == "kbuild.build")
        ancestor = build
        seen = set()
        while ancestor["args"].get("parent") is not None:
            assert ancestor["args"]["index"] not in seen  # no cycles
            seen.add(ancestor["args"]["index"])
            ancestor = by_index[ancestor["args"]["parent"]]
        assert ancestor["name"].startswith(("experiment:", "harness.run"))

        metrics = json.loads(run.metrics_path.read_text())
        assert metrics["counters"]["kbuild.builds"] >= 1
        assert "harness.experiment.wall_ms" in metrics["histograms"]

    def test_report_renders_from_disk(self, tmp_path):
        run = run_experiments(
            names=["fig5"],
            output_dir=tmp_path / "out", cache_dir=tmp_path / "cache",
        )
        report = render_trace_report(run.trace_path,
                                     metrics_path=run.metrics_path, top_n=5)
        assert "self time" in report
        assert "phase breakdown" in report
        assert "fig5" in report
