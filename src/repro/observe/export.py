"""Exporters and report renderers for traces and metrics.

Two per-run artifacts land next to the run manifest:

- ``trace.json`` -- Chrome trace-event format (a ``traceEvents`` array of
  complete ``"ph": "X"`` events), loadable as-is in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Span structure
  (``index``/``parent`` and the simulated clock) rides in each event's
  ``args``, so the exact span tree is reconstructible from the file.
- ``metrics.json`` -- the :class:`~repro.observe.metrics.MetricsRegistry`
  snapshot (counters, gauges, histograms).

The same module renders the ``repro-lupine trace`` report: a top-N
self-time table (time in a span minus time in its children, aggregated by
span name) and a per-experiment phase breakdown, both computed from the
``trace.json`` on disk so the report works on any archived run.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence

from repro.core.atomicio import atomic_write_text
from repro.observe.metrics import MetricsRegistry
from repro.observe.tracer import SpanRecord

TRACE_NAME = "trace.json"
METRICS_NAME = "metrics.json"


# -- writing ----------------------------------------------------------------

def chrome_trace(records: Sequence[SpanRecord],
                 process_name: str = "repro-harness") -> Dict[str, Any]:
    """*records* as a Chrome trace-event document (see module docstring)."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for record in records:
        args = {
            "index": record.index,
            "parent": record.parent_index,
            "sim_start_ms": record.sim_start_ms,
            "sim_duration_ms": record.sim_duration_ms,
        }
        args.update(record.attrs)
        events.append(
            {
                "name": record.name,
                "cat": record.category,
                "ph": "X",
                "ts": record.start_us,
                "dur": record.duration_us,
                "pid": 1,
                "tid": 0,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_run_artifacts(
    output_dir: pathlib.Path,
    records: Sequence[SpanRecord],
    registry: MetricsRegistry,
) -> Dict[str, pathlib.Path]:
    """Write ``trace.json`` + ``metrics.json`` under *output_dir*."""
    output_dir = pathlib.Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    trace_path = output_dir / TRACE_NAME
    atomic_write_text(
        trace_path,
        json.dumps(chrome_trace(records), indent=2, sort_keys=True) + "\n",
    )
    metrics_path = output_dir / METRICS_NAME
    atomic_write_text(
        metrics_path,
        json.dumps(registry.to_dict(), indent=2, sort_keys=True) + "\n",
    )
    return {"trace": trace_path, "metrics": metrics_path}


# -- reading ----------------------------------------------------------------

def load_trace_events(path: pathlib.Path) -> List[Dict[str, Any]]:
    """The span (``"ph": "X"``) events of a ``trace.json`` file."""
    payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    events = payload.get("traceEvents", [])
    return [event for event in events if event.get("ph") == "X"]


def load_metrics(path: pathlib.Path) -> Dict[str, Any]:
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


# -- analysis ---------------------------------------------------------------

def self_time_by_name(events: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Aggregate self time per span name.

    Self time = a span's duration minus its direct children's durations
    (floored at zero against clock skew).  Returns, per name:
    ``{"count", "total_ms", "self_ms"}``.
    """
    child_time_us: Dict[int, float] = {}
    for event in events:
        parent = event["args"].get("parent")
        if parent is not None:
            child_time_us[parent] = (
                child_time_us.get(parent, 0.0) + float(event.get("dur", 0.0))
            )
    aggregated: Dict[str, Dict[str, float]] = {}
    for event in events:
        index = event["args"].get("index")
        duration_us = float(event.get("dur", 0.0))
        self_us = max(0.0, duration_us - child_time_us.get(index, 0.0))
        row = aggregated.setdefault(
            event["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        row["count"] += 1
        row["total_ms"] += duration_us / 1000.0
        row["self_ms"] += self_us / 1000.0
    return aggregated


def top_self_time(events: Sequence[Dict[str, Any]],
                  top_n: int = 15) -> List[Dict[str, Any]]:
    """The *top_n* span names by aggregate self time, descending.

    Ties break on name so the report is deterministic.
    """
    aggregated = self_time_by_name(events)
    ranked = sorted(
        aggregated.items(), key=lambda item: (-item[1]["self_ms"], item[0])
    )
    return [
        {"name": name, **row} for name, row in ranked[:max(0, top_n)]
    ]


def experiment_phase_rows(
    events: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Per-experiment phase breakdown rows from harness spans.

    An *experiment span* is any event carrying an ``experiment`` arg at
    depth (emitted by the runner as ``experiment:<name>``); its direct
    children are the phases (fingerprint, cache-lookup, execute, ...).
    Rows are ordered by experiment span index, then phase start.
    """
    experiments = {
        event["args"]["index"]: event
        for event in events
        if "experiment" in event["args"]
    }
    rows: List[Dict[str, Any]] = []
    for index in sorted(experiments):
        parent_event = experiments[index]
        phases = sorted(
            (e for e in events if e["args"].get("parent") == index),
            key=lambda e: e["args"]["index"],
        )
        for phase in phases:
            rows.append(
                {
                    "experiment": parent_event["args"]["experiment"],
                    "phase": phase["name"],
                    "wall_ms": float(phase.get("dur", 0.0)) / 1000.0,
                    "sim_ms": float(
                        phase["args"].get("sim_duration_ms", 0.0)
                    ),
                }
            )
    return rows


def render_trace_report(
    trace_path: pathlib.Path,
    metrics_path: Optional[pathlib.Path] = None,
    top_n: int = 15,
) -> str:
    """The full ``repro-lupine trace`` report as text."""
    from repro.metrics.reporting import Table, render_table

    events = load_trace_events(trace_path)
    sections: List[str] = []

    top = Table(
        title=f"top {top_n} spans by self time",
        headers=["span", "count", "self ms", "total ms"],
    )
    for row in top_self_time(events, top_n):
        top.add_row(row["name"], row["count"],
                    round(row["self_ms"], 3), round(row["total_ms"], 3))
    sections.append(render_table(top))

    phases = Table(
        title="per-experiment phase breakdown",
        headers=["experiment", "phase", "wall ms", "sim ms"],
    )
    for row in experiment_phase_rows(events):
        phases.add_row(row["experiment"], row["phase"],
                       round(row["wall_ms"], 3), round(row["sim_ms"], 3))
    sections.append(render_table(phases))

    if metrics_path is not None and pathlib.Path(metrics_path).is_file():
        metrics = load_metrics(metrics_path)
        counters = Table(title="counters", headers=["name", "value"])
        for name, value in sorted(metrics.get("counters", {}).items()):
            counters.add_row(name, value)
        sections.append(render_table(counters))
    return "\n\n".join(sections)
