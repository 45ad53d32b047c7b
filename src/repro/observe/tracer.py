"""The deterministic span tracer.

A :class:`Tracer` records a tree of named spans -- one
:class:`SpanRecord` per ``with tracer.span("name")`` block -- with two
clocks per span:

- a **host clock** (:class:`HostClock`, ``time.perf_counter``): real wall
  time, for profiling where a run actually spends its time;
- a **simulated clock** (:class:`SimClock`): a monotonic counter the
  simulators advance explicitly (e.g. the boot simulator advances it by
  each phase's modelled duration), so traces also carry the
  *deterministic* time the models computed.

Spans nest on one stack (the process runs one thread), and every record
carries a global sequence index plus its parent's index, so the full tree
is reconstructible from the flat event list -- which is exactly how the
Chrome-trace exporter (:mod:`repro.observe.export`) ships it.

Determinism: span *structure* (names, nesting, order, attributes) is a
pure function of the traced code path.  ``span_tree()`` projects records
onto that structure, so two identical runs compare equal even though
host timestamps differ; with a :class:`TickClock` the full records
(timestamps included) are bit-identical.

The process-wide instance is :data:`repro.observe.TRACER`; library code
uses the module-level :func:`span` / :func:`traced` conveniences so call
sites stay one line.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
)

from contextlib import contextmanager

if TYPE_CHECKING:  # pragma: no cover -- typing only
    from repro.simcore.clock import VirtualClock


class HostClock:
    """Monotonic host time in microseconds (``time.perf_counter``)."""

    def now_us(self) -> float:
        return time.perf_counter() * 1e6


class TickClock:
    """A deterministic clock: advances a fixed step per reading.

    Used by tests and the chaos harness (and available to any caller
    wanting bit-identical traces): with a ``TickClock`` two identical
    runs produce identical timestamps, not just identical span trees.
    """

    def __init__(self, step_us: float = 1.0) -> None:
        self.step_us = step_us
        self._now = 0.0

    def now_us(self) -> float:
        self._now += self.step_us
        return self._now


class SimClock:
    """The simulated-time axis: a millisecond view over a virtual clock.

    Historically this was its own ms counter; it is now a unit-adapting
    view over a :class:`repro.simcore.clock.VirtualClock` (the single
    time authority), so spans recorded while a guest is active carry that
    guest's timeline.  A ``SimClock()`` with no argument owns a private
    clock -- ad-hoc ``Tracer()`` instances stay isolated.

    Simulators no longer call :meth:`advance` directly (the
    ``tools/lint_time.py`` gate forbids it outside simcore/observe);
    they advance :func:`repro.simcore.context.current_clock`.
    """

    def __init__(self, clock: Optional["VirtualClock"] = None) -> None:
        if clock is None:
            from repro.simcore.clock import VirtualClock

            clock = VirtualClock()
        self._clock = clock

    def _target(self) -> "VirtualClock":
        return self._clock

    @property
    def now_ms(self) -> float:
        return self._target().now_ms

    def advance(self, ms: float) -> float:
        """Advance simulated time by *ms* (>= 0), returning the new now."""
        if ms < 0:
            raise ValueError(f"simulated time cannot go backwards ({ms} ms)")
        return self._target().advance_ms(ms)

    def reset(self) -> None:
        self._target().reset()


class ActiveSimClock(SimClock):
    """The process tracer's sim axis: a view over the *active* clock.

    Delegates every reading to
    :func:`repro.simcore.context.current_clock`: outside a guest scope
    that is the process default clock (the old global counter); inside
    ``Guest.boot()``/``serve()`` it is that guest's own clock, so traces
    line up with per-guest virtual time.
    """

    def __init__(self) -> None:  # noqa: super().__init__ -- owns no clock
        pass

    def _target(self) -> "VirtualClock":
        from repro.simcore.context import current_clock

        return current_clock()


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    category: str
    index: int                      # global sequence number (creation order)
    parent_index: Optional[int]     # enclosing span
    depth: int                      # nesting depth (0 = root)
    start_us: float = 0.0
    duration_us: float = 0.0
    sim_start_ms: float = 0.0
    sim_duration_ms: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    def set_attr(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute while the span is live."""
        self.attrs[key] = value


class Tracer:
    """Records nested spans (see module docstring)."""

    def __init__(self, clock: Optional[HostClock] = None,
                 sim: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else HostClock()
        self.sim = sim if sim is not None else SimClock()
        self._records: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, category: str = "repro",
             **attrs: Any) -> Iterator[SpanRecord]:
        """Record a span around the ``with`` body.

        Keyword arguments become span attributes; the yielded record
        accepts more via :meth:`SpanRecord.set_attr` while live.
        """
        stack = self._stack
        record = SpanRecord(
            name=name,
            category=category,
            index=len(self._records),
            parent_index=stack[-1].index if stack else None,
            depth=len(stack),
            attrs=dict(attrs),
        )
        self._records.append(record)
        record.start_us = self.clock.now_us()
        record.sim_start_ms = self.sim.now_ms
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record.duration_us = max(
                0.0, self.clock.now_us() - record.start_us
            )
            record.sim_duration_ms = max(
                0.0, self.sim.now_ms - record.sim_start_ms
            )

    def traced(self, name: Optional[str] = None,
               category: str = "repro") -> Callable:
        """Decorator form of :meth:`span` (default name: the function's)."""

        def decorate(fn: Callable) -> Callable:
            span_name = name if name is not None else fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(span_name, category=category):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    # -- reading -----------------------------------------------------------

    def mark(self) -> int:
        """A watermark: pass to :meth:`records_since` to scope one run."""
        return len(self._records)

    def records(self) -> List[SpanRecord]:
        return list(self._records)

    def records_since(self, mark: int) -> List[SpanRecord]:
        """Spans recorded (started) at or after *mark*."""
        return self._records[mark:]

    def span_tree(self, records: Optional[List[SpanRecord]] = None
                  ) -> List[Dict[str, Any]]:
        """The deterministic structural projection of recorded spans.

        Returns a forest of ``{"name", "category", "attrs", "children"}``
        nodes (no timestamps): identical code paths yield
        identical trees, which is what the determinism tests compare.
        """
        if records is None:
            records = self.records()
        nodes = {
            record.index: {
                "name": record.name,
                "category": record.category,
                "attrs": dict(record.attrs),
                "children": [],
            }
            for record in records
        }
        roots: List[Dict[str, Any]] = []
        for record in records:          # creation order => stable ordering
            node = nodes[record.index]
            parent = (
                nodes.get(record.parent_index)
                if record.parent_index is not None else None
            )
            (parent["children"] if parent is not None else roots).append(node)
        return roots

    def reset(self) -> None:
        """Drop all records and rewind the simulated clock (tests)."""
        self._records.clear()
        self.sim.reset()
