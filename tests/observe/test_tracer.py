"""Tests for the deterministic span tracer."""

import dataclasses

import pytest

from repro.observe.tracer import SimClock, TickClock, Tracer


def _traced_workload(tracer):
    """A fixed code path: the determinism tests run it twice."""
    with tracer.span("run", category="test", jobs=1):
        for name in ("alpha", "beta"):
            with tracer.span(f"experiment:{name}", category="test",
                             experiment=name):
                with tracer.span("fingerprint", category="test"):
                    pass
                with tracer.span("execute", category="test") as record:
                    tracer.sim.advance(5.0)
                    record.set_attr("steps", 3)


class TestSpanTree:
    def test_same_run_identical_span_tree(self):
        first, second = Tracer(), Tracer()
        _traced_workload(first)
        _traced_workload(second)
        assert first.span_tree() == second.span_tree()

    def test_tree_structure(self):
        tracer = Tracer()
        _traced_workload(tracer)
        (root,) = tracer.span_tree()
        assert root["name"] == "run"
        assert [c["name"] for c in root["children"]] == [
            "experiment:alpha", "experiment:beta",
        ]
        alpha = root["children"][0]
        assert [c["name"] for c in alpha["children"]] == [
            "fingerprint", "execute",
        ]
        assert alpha["attrs"] == {"experiment": "alpha"}
        assert alpha["children"][1]["attrs"] == {"steps": 3}

    def test_tick_clock_makes_full_records_identical(self):
        first = Tracer(clock=TickClock())
        second = Tracer(clock=TickClock())
        _traced_workload(first)
        _traced_workload(second)
        as_dicts = lambda t: [dataclasses.asdict(r) for r in t.records()]
        assert as_dicts(first) == as_dicts(second)

    def test_depth_and_parent_links(self):
        tracer = Tracer()
        _traced_workload(tracer)
        records = {r.index: r for r in tracer.records()}
        root = records[0]
        assert root.depth == 0 and root.parent_index is None
        for record in records.values():
            if record.parent_index is not None:
                assert record.depth == records[record.parent_index].depth + 1


class TestClocks:
    def test_sim_clock_advances_inside_spans(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.sim.advance(10.0)
            with tracer.span("inner") as inner:
                tracer.sim.advance(2.5)
        assert inner.sim_duration_ms == pytest.approx(2.5)
        assert outer.sim_duration_ms == pytest.approx(12.5)
        assert inner.sim_start_ms == pytest.approx(10.0)

    def test_sim_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_host_durations_nonnegative_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.records()
        assert outer.duration_us >= inner.duration_us >= 0.0

    def test_reset_clears_records_and_sim_clock(self):
        tracer = Tracer()
        with tracer.span("x"):
            tracer.sim.advance(4.0)
        tracer.reset()
        assert tracer.records() == []
        assert tracer.sim.now_ms == 0.0


class TestApi:
    def test_decorator_records_span(self):
        tracer = Tracer()

        @tracer.traced("my.op", category="test")
        def operation(value):
            return value * 2

        assert operation(21) == 42
        (record,) = tracer.records()
        assert record.name == "my.op" and record.category == "test"

    def test_decorator_defaults_to_qualname(self):
        tracer = Tracer()

        @tracer.traced()
        def some_function():
            pass

        some_function()
        assert "some_function" in tracer.records()[0].name

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("fails"):
                raise RuntimeError("boom")
        (record,) = tracer.records()
        assert record.duration_us >= 0.0
        # The stack unwound: a new span is a root again.
        with tracer.span("next"):
            pass
        assert tracer.records()[1].parent_index is None

    def test_mark_and_records_since(self):
        tracer = Tracer()
        with tracer.span("before"):
            pass
        mark = tracer.mark()
        with tracer.span("after"):
            pass
        names = [r.name for r in tracer.records_since(mark)]
        assert names == ["after"]
