"""Figure 10: KML improvement vs busy-wait iterations between syscalls.

Each iteration point measures a fresh KML guest against a fresh no-KML
guest (:mod:`repro.simcore`), so per-guest jitter state never leaks
between points.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.variants import Variant
from repro.metrics.reporting import Figure
from repro.simcore import variant_guest
from repro.syscall.lmbench import kml_improvement

ITERATION_POINTS = (0, 10, 20, 40, 60, 80, 100, 120, 140, 160)


def run() -> List[Tuple[int, float]]:
    points = []
    for iterations in ITERATION_POINTS:
        improvement = kml_improvement(
            variant_guest(Variant.LUPINE).engine,
            variant_guest(Variant.LUPINE_NOKML).engine,
            iterations,
        )
        points.append((iterations, improvement))
    return points


def figure(points: List[Tuple[int, float]]) -> Figure:
    output = Figure(
        title="Figure 10: KML syscall latency improvement vs busy-wait",
        x_label="iterations between system calls",
        y_label="KML improvement (fraction)",
    )
    output.add_series("improvement", points)
    return output
