"""Figure 3: Linux kernel configuration options per source directory.

Series: total options in the tree, options selected by microVM, and options
in lupine-base -- log scale in the paper; we emit the raw counts.
"""

from __future__ import annotations

from typing import Dict

from repro.kconfig.configs import lupine_base_config, microvm_config
from repro.kconfig.database import build_linux_tree
from repro.metrics.reporting import Figure, Table


def run() -> Dict[str, Dict[str, int]]:
    tree = build_linux_tree()
    total = tree.count_by_directory()
    microvm = tree.count_selected_by_directory(microvm_config(tree).enabled)
    lupine = tree.count_selected_by_directory(
        lupine_base_config(tree).enabled
    )
    return {"total": total, "microvm": microvm, "lupine-base": lupine}


def table(results: Dict[str, Dict[str, int]]) -> Table:
    directories = sorted(
        results["total"], key=lambda d: -results["total"][d]
    )
    output = Table(
        title="Figure 3: config options per directory",
        headers=["directory", "total", "microvm", "lupine-base"],
    )
    for directory in directories:
        output.add_row(
            directory,
            results["total"][directory],
            results["microvm"].get(directory, 0),
            results["lupine-base"].get(directory, 0),
        )
    output.add_row(
        "TOTAL",
        sum(results["total"].values()),
        sum(results["microvm"].values()),
        sum(results["lupine-base"].values()),
    )
    return output


def figure(results: Dict[str, Dict[str, int]]) -> Figure:
    directories = sorted(results["total"], key=lambda d: -results["total"][d])
    output = Figure(
        title="Figure 3: config options (log scale in paper)",
        x_label="directory",
        y_label="option count",
    )
    for series_name in ("total", "microvm", "lupine-base"):
        output.add_series(
            series_name,
            [(d, results[series_name].get(d, 0)) for d in directories],
        )
    return output
