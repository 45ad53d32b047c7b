"""Tests for the metrics registry (histogram edges pinned exactly)."""

import concurrent.futures
import json

import pytest

from repro.observe.metrics import Histogram, MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert registry.counter("c").value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_thread_safety(self):
        counter = MetricsRegistry().counter("c")

        def bump(_):
            for _ in range(1000):
                counter.inc()

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(bump, range(8)))
        assert counter.value == 8000


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3)
        registry.gauge("g").set(7.5)
        assert registry.gauge("g").value == 7.5


class TestHistogramBuckets:
    def test_value_exactly_on_boundary_lands_in_that_bucket(self):
        histogram = Histogram("h", (1.0, 5.0, 10.0))
        histogram.observe(5.0)  # inclusive upper bound: the 5.0 bucket
        assert histogram.bucket_counts() == [
            (1.0, 0), (5.0, 1), (10.0, 0), (None, 0),
        ]

    def test_value_just_above_boundary_moves_up(self):
        histogram = Histogram("h", (1.0, 5.0, 10.0))
        histogram.observe(5.0000001)
        assert histogram.bucket_counts() == [
            (1.0, 0), (5.0, 0), (10.0, 1), (None, 0),
        ]

    def test_first_boundary_includes_zero_and_below(self):
        histogram = Histogram("h", (1.0, 5.0))
        histogram.observe(0.0)
        histogram.observe(1.0)
        assert histogram.bucket_counts()[0] == (1.0, 2)

    def test_above_last_boundary_overflows(self):
        histogram = Histogram("h", (1.0, 5.0))
        histogram.observe(5.0)   # in-range (inclusive)
        histogram.observe(5.01)  # overflow
        assert histogram.bucket_counts() == [(1.0, 0), (5.0, 1), (None, 1)]

    def test_summary_stats(self):
        histogram = Histogram("h", (10.0,))
        for value in (2.0, 8.0, 14.0):
            histogram.observe(value)
        snapshot = histogram.to_dict()
        assert snapshot["count"] == 3
        assert snapshot["sum"] == pytest.approx(24.0)
        assert (snapshot["min"], snapshot["max"]) == (2.0, 14.0)

    def test_nan_overflows(self):
        histogram = Histogram("h", (1.0, 5.0))
        histogram.observe(float("nan"))
        assert histogram.bucket_counts()[-1] == (None, 1)

    def test_observe_many_equals_one_observe_per_value(self):
        values = [0.0, 1.0, 0.3, 5.0, 7.5, 11.0, 0.1 + 0.2, float("inf")]
        one_by_one = Histogram("h", (1.0, 5.0, 10.0))
        for value in values:
            one_by_one.observe(value)
        bulk = Histogram("h", (1.0, 5.0, 10.0))
        bulk.observe_many(values)
        assert bulk.to_dict() == one_by_one.to_dict()

    def test_unsorted_or_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (5.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 1.0))


class TestRegistry:
    def test_create_on_first_use_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h", (1.0,)) is registry.histogram("h", (1.0,))

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x", (1.0,))

    def test_histogram_bucket_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", (1.0, 3.0))

    def test_to_dict_is_sorted_and_json_stable(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("z").set(1.5)
        registry.histogram("h", (1.0,)).observe(0.5)
        snapshot = registry.to_dict()
        assert list(snapshot["counters"]) == ["a", "b"]
        assert (
            json.dumps(snapshot, sort_keys=True)
            == json.dumps(registry.to_dict(), sort_keys=True)
        )

    def test_reset_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.reset()
        assert registry.counter("c").value == 0

    def test_measure_reports_named_deltas_in_order(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(5)

        def work():
            registry.counter("b").inc(2)
            registry.counter("c").inc()
            return "done"

        value, deltas = registry.measure(work, ("c", "b", "never"))
        assert value == "done"
        assert list(deltas.items()) == [("c", 1), ("b", 2), ("never", 0)]

    def test_measure_without_names_reports_every_moved_counter(self):
        registry = MetricsRegistry()
        registry.counter("idle").inc(3)
        registry.counter("z").inc()

        def work():
            registry.counter("z").inc(4)
            registry.counter("a").inc(1)
            registry.counter("created_unused")

        _, deltas = registry.measure(work)
        assert list(deltas.items()) == [("a", 1), ("z", 4)]
