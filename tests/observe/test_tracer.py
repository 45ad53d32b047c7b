"""Tests for the deterministic span tracer."""

import dataclasses

import pytest

from repro.observe.tracer import TickClock, Tracer
from repro.simcore.clock import VirtualClock
from repro.simcore.context import use_clock


def _traced_workload(tracer):
    """A fixed code path: the determinism tests run it twice."""
    with use_clock(VirtualClock()) as clock:
        with tracer.span("run", category="test", jobs=1):
            for name in ("alpha", "beta"):
                with tracer.span(f"experiment:{name}", category="test",
                                 experiment=name):
                    with tracer.span("fingerprint", category="test"):
                        pass
                    with tracer.span("execute", category="test") as record:
                        clock.advance_ms(5.0)
                        record.set_attr("steps", 3)


def _span_tree(tracer):
    """The structural projection of *tracer*'s records: a forest of
    ``{"name", "category", "attrs", "children"}`` nodes, no timestamps."""
    nodes = {}
    roots = []
    for record in tracer.records():     # creation order => stable ordering
        node = nodes[record.index] = {
            "name": record.name,
            "category": record.category,
            "attrs": dict(record.attrs),
            "children": [],
        }
        parent = nodes.get(record.parent_index)
        (parent["children"] if parent is not None else roots).append(node)
    return roots


class TestSpanTree:
    def test_same_run_identical_span_tree(self):
        first, second = Tracer(), Tracer()
        _traced_workload(first)
        _traced_workload(second)
        assert _span_tree(first) == _span_tree(second)

    def test_tree_structure(self):
        tracer = Tracer()
        _traced_workload(tracer)
        (root,) = _span_tree(tracer)
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
        with use_clock(VirtualClock()) as clock:
            with tracer.span("outer") as outer:
                clock.advance_ms(10.0)
                with tracer.span("inner") as inner:
                    clock.advance_ms(2.5)
        assert inner.sim_duration_ms == pytest.approx(2.5)
        assert outer.sim_duration_ms == pytest.approx(12.5)
        assert inner.sim_start_ms == pytest.approx(10.0)

    def test_host_durations_nonnegative_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.records()
        assert outer.duration_us >= inner.duration_us >= 0.0

    def test_reset_clears_records_and_sim_clock(self):
        from repro.observe import TRACER, reset_observability
        from repro.simcore.context import default_clock

        with TRACER.span("x"):
            default_clock().advance_ms(4.0)
        reset_observability()
        assert TRACER.records() == []
        assert default_clock().now_ms == 0.0


class TestApi:
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
