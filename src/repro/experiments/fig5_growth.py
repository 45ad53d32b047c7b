"""Figure 5: growth of unique kernel config options to support more apps."""

from __future__ import annotations

from typing import List

from repro.apps.registry import cumulative_option_growth
from repro.metrics.reporting import Figure


def run() -> List[int]:
    return cumulative_option_growth()


def figure(growth: List[int]) -> Figure:
    output = Figure(
        title="Figure 5: unique config options vs apps supported",
        x_label="support for top x apps",
        y_label="number of config options",
    )
    output.add_series(
        "union of app-specific options",
        [(index + 1, count) for index, count in enumerate(growth)],
    )
    return output
