"""Figure 12: perf context-switch benchmark, threads vs processes.

Each (groups, variant, mode) cell runs the messaging benchmark on a
fresh :class:`~repro.simcore.guest.Guest`'s engine.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.variants import Variant
from repro.metrics.reporting import Figure
from repro.simcore import variant_guest
from repro.workloads.perf_messaging import run_messaging

GROUP_COUNTS = (1, 2, 4, 8, 16)


def run() -> Dict[str, List[tuple]]:
    """series -> [(groups, ms per 100-message batch), ...]."""
    series: Dict[str, List[tuple]] = {
        "KML Thread": [], "KML Process": [],
        "NOKML Thread": [], "NOKML Process": [],
    }
    for groups in GROUP_COUNTS:
        for label, variant in (("KML", Variant.LUPINE),
                               ("NOKML", Variant.LUPINE_NOKML)):
            for mode, use_processes in (("Thread", False), ("Process", True)):
                guest = variant_guest(variant)
                result = run_messaging(guest.engine, groups, use_processes)
                series[f"{label} {mode}"].append(
                    (groups, result.ms_per_batch)
                )
    return series


def max_process_penalty(results: Dict[str, List[tuple]]) -> float:
    """Worst-case slowdown of processes vs threads across the sweep of a
    :func:`run` result."""
    worst = 0.0
    for label in ("KML", "NOKML"):
        threads = dict(results[f"{label} Thread"])
        processes = dict(results[f"{label} Process"])
        for groups in GROUP_COUNTS:
            worst = max(worst, processes[groups] / threads[groups] - 1.0)
    return worst


def figure(series: Dict[str, List[tuple]]) -> Figure:
    output = Figure(
        title="Figure 12: perf messaging, threads vs processes",
        x_label="# groups (10 senders + 10 receivers each)",
        y_label="ms per 100-message batch",
    )
    for name, points in series.items():
        output.add_series(name, points)
    return output
