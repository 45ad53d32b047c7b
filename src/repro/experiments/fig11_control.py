"""Figure 11: syscall latency vs number of background control processes.

Each (variant, process-count) cell runs on a fresh
:class:`~repro.simcore.guest.Guest`; the control processes sleep on the
guest's scheduler while its engine takes the latency measurements.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.variants import Variant
from repro.metrics.reporting import Figure
from repro.simcore import variant_guest
from repro.workloads.control_procs import run_with_control_processes

POWERS = tuple(range(11))  # 2^0 .. 2^10


def run() -> Dict[str, List[tuple]]:
    """series name ('KML Null', 'NOKML Read', ...) -> [(procs, us), ...]."""
    series: Dict[str, List[tuple]] = {}
    for label in ("KML", "NOKML"):
        for test in ("null", "read", "write"):
            series[f"{label} {test.title()}"] = []
    for power in POWERS:
        count = 2 ** power
        for label, variant in (("KML", Variant.LUPINE),
                               ("NOKML", Variant.LUPINE_NOKML)):
            guest = variant_guest(variant)
            result = run_with_control_processes(guest.engine, count)
            for test in ("null", "read", "write"):
                series[f"{label} {test.title()}"].append(
                    (count, result.latencies_us[test])
                )
    return series


def figure(series: Dict[str, List[tuple]]) -> Figure:
    output = Figure(
        title="Figure 11: syscall latency vs background control processes",
        x_label="# control processes",
        y_label="microseconds",
    )
    for name, points in series.items():
        output.add_series(name, points)
    return output
