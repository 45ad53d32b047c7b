"""Structured observability: span tracing, metrics, exporters, perf gate.

The paper's whole evaluation is measurement; this package is how the
reproduction measures *itself*.  Four pieces:

- :mod:`repro.observe.tracer` -- a deterministic span tracer (nested
  spans, host + simulated clocks);
- :mod:`repro.observe.metrics` -- counters, gauges and fixed-bucket
  histograms the caches, resolver and runner publish into;
- :mod:`repro.observe.export` -- per-run ``trace.json`` (Chrome
  trace-event format, loadable in Perfetto) and ``metrics.json``, plus
  the ``repro-lupine trace`` report renderers;
- :mod:`repro.observe.regress` -- the baseline/regression gate CI runs.

Library code publishes through the process-wide :data:`TRACER` and
:data:`METRICS` via the one-line conveniences::

    from repro.observe import METRICS, span

    with span("kbuild.build", category="kbuild", options=n):
        ...
    METRICS.counter("buildcache.misses").inc()

Span-name conventions and the full API are documented in
``docs/OBSERVABILITY.md``.
"""

from contextlib import contextmanager
from typing import Any, Iterator

from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import SpanRecord, Tracer
from repro.simcore.context import default_clock

#: The process-wide tracer every instrumented layer records into.  Its
#: simulated-time axis is the *active* virtual clock
#: (:func:`repro.simcore.context.current_clock`): the process default
#: clock outside guest scopes, a guest's own clock inside its lifecycle.
TRACER = Tracer()

#: The process-wide metrics registry (counters/gauges/histograms).
METRICS = MetricsRegistry()


@contextmanager
def span(name: str, category: str = "repro",
         **attrs: Any) -> Iterator[SpanRecord]:
    """``TRACER.span(...)`` -- the one-line call-site convenience."""
    with TRACER.span(name, category=category, **attrs) as record:
        yield record


def reset_observability() -> None:
    """Reset the global tracer and metrics registry and rewind the
    process default clock (test isolation)."""
    TRACER.reset()
    METRICS.reset()
    default_clock().reset()


__all__ = ["METRICS", "TRACER", "reset_observability", "span"]
