"""The deterministic span tracer.

A :class:`Tracer` records a tree of named spans -- one
:class:`SpanRecord` per ``with tracer.span("name")`` block -- with two
clocks per span:

- a **host clock** (:class:`HostClock`, ``time.perf_counter``): real wall
  time, for profiling where a run actually spends its time;
- **simulated time**: the active virtual clock,
  :func:`repro.simcore.context.current_clock`, read in milliseconds.
  Outside a guest scope that is the process default clock; inside
  ``Guest.boot()``/``serve()`` it is that guest's own clock, so traces
  also carry the *deterministic* time the models computed (e.g. each
  boot phase's modelled duration).  The tracer only reads it; the
  simulators advance it.

Spans nest on one stack (the process runs one thread), and every record
carries a global sequence index plus its parent's index, so the full tree
is reconstructible from the flat event list -- which is exactly how the
Chrome-trace exporter (:mod:`repro.observe.export`) ships it.

Determinism: span *structure* (names, nesting, order, attributes) is a
pure function of the traced code path, so two identical runs record the
same structure even though host timestamps differ; with a
:class:`TickClock` the full records (timestamps included) are
bit-identical.

The process-wide instance is :data:`repro.observe.TRACER`; library code
uses the module-level :func:`repro.observe.span` convenience so call
sites stay one line.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.simcore.context import current_clock


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

    def __init__(self, clock: Optional[HostClock] = None) -> None:
        self.clock = clock if clock is not None else HostClock()
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
        record.sim_start_ms = current_clock().now_ms
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record.duration_us = max(
                0.0, self.clock.now_us() - record.start_us
            )
            record.sim_duration_ms = max(
                0.0, current_clock().now_ms - record.sim_start_ms
            )

    # -- reading -----------------------------------------------------------

    def mark(self) -> int:
        """A watermark: pass to :meth:`records_since` to scope one run."""
        return len(self._records)

    def records(self) -> List[SpanRecord]:
        return list(self._records)

    def records_since(self, mark: int) -> List[SpanRecord]:
        """Spans recorded (started) at or after *mark*."""
        return self._records[mark:]

    def reset(self) -> None:
        """Drop all records (tests)."""
        self._records.clear()
