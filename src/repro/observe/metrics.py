"""The metrics registry: counters, gauges, fixed-bucket histograms.

Instruments are created on first use (``METRICS.counter("x").inc()``) and
live for the process, like the kernel build cache they instrument.  All
three kinds serialize to plain JSON (:meth:`MetricsRegistry.to_dict`),
sorted by name, so ``metrics.json`` is byte-stable for a given set of
observations.

Histograms use **fixed, inclusive upper-bound buckets** declared at
creation: an observation lands in the first bucket whose bound is
``>= value`` (a value exactly on a boundary belongs to that boundary's
bucket), and values above the last bound land in the implicit overflow
bucket, serialized with bound ``null`` (+inf).  Fixed boundaries make
histograms from different runs directly comparable, which is what the
regression checker (:mod:`repro.observe.regress`) needs.

Re-declaring an instrument with a conflicting kind (or a histogram with
different buckets) raises -- silent redefinition would corrupt
cross-run comparisons.

:meth:`MetricsRegistry.measure` is the one way to count the work a
callable did: every ``bench-*`` scenario and every serving fan-out
worker reports the counter deltas it returns.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

T = TypeVar("T")

#: Default histogram boundaries for millisecond durations.
DEFAULT_MS_BUCKETS: Tuple[float, ...] = (
    1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 10000.0,
)

#: Default histogram boundaries for kilobyte sizes.
DEFAULT_KB_BUCKETS: Tuple[float, ...] = (
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
)


class Counter:
    """A monotonically increasing integer."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (last write wins)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram (inclusive upper bounds; see module doc)."""

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        if not buckets:
            raise ValueError(f"histogram {name}: needs at least one bucket")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name}: bucket bounds must be strictly increasing"
            )
        self.name = name
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)   # +1: overflow (+inf)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def _bucket(self, value: float) -> int:
        """The first bucket whose bound is ``>= value``; the overflow
        bucket past the last bound (and for NaN, which compares false)."""
        if value <= self.bounds[-1]:
            return bisect_left(self.bounds, value)
        return len(self.bounds)

    def observe(self, value: float) -> None:
        value = float(value)
        self._record(self._bucket(value), value)

    def observe_many(self, values: Iterable[float]) -> None:
        """``observe`` each of *values* in order.

        For folding a run's samples in at its end (the serving run's
        per-request latencies): the result equals one ``observe`` per
        value, sum order included.
        """
        for value in values:
            value = float(value)
            self._record(self._bucket(value), value)

    def _record(self, index: int, value: float) -> None:
        self._counts[index] += 1
        self._count += 1
        self._sum += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    def bucket_counts(self) -> List[Tuple[Optional[float], int]]:
        """``(upper_bound, count)`` pairs; the final bound is None (+inf)."""
        bounds: List[Optional[float]] = list(self.bounds)
        bounds.append(None)
        return list(zip(bounds, self._counts))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "buckets": [
                [bound, count]
                for bound, count in zip(
                    list(self.bounds) + [None], self._counts
                )
            ],
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
        }


class MetricsRegistry:
    """Name -> instrument registry (create-on-first-use)."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, own: Dict[str, Any]) -> None:
        for kind, table in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms)):
            if table is not own and name in table:
                raise ValueError(f"metric {name!r} already exists as a {kind}")

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._check_free(name, self._counters)
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._check_free(name, self._gauges)
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_MS_BUCKETS) -> Histogram:
        existing = self._histograms.get(name)
        if existing is not None:
            if existing.bounds != tuple(float(b) for b in buckets):
                raise ValueError(
                    f"histogram {name!r} re-declared with different "
                    "buckets"
                )
            return existing
        self._check_free(name, self._histograms)
        self._histograms[name] = Histogram(name, buckets)
        return self._histograms[name]

    def measure(
        self, fn: Callable[[], T], names: Optional[Sequence[str]] = None
    ) -> Tuple[T, Dict[str, int]]:
        """Run *fn*; return its value and the counter deltas it caused.

        With *names*, exactly those counters are reported, in the given
        order, zero deltas included; with ``None``, every counter that
        moved, sorted by name.
        """
        start = self._counter_values()
        value = fn()
        end = self._counter_values()
        if names is None:
            names = [name for name in sorted(end)
                     if end[name] != start.get(name, 0)]
        return value, {
            name: end.get(name, 0) - start.get(name, 0) for name in names
        }

    def _counter_values(self) -> Dict[str, int]:
        return {
            name: counter.value for name, counter in self._counters.items()
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot: the ``metrics.json`` payload."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

    def reset(self) -> None:
        """Drop every instrument (test isolation)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
