"""Extension experiment: attack surface & CVE nullification (DESIGN.md §6)."""

from __future__ import annotations

from typing import Dict

from repro.core.specialization import lupine_general_config
from repro.kconfig.configs import lupine_base_config, microvm_config
from repro.metrics.reporting import Table
from repro.security import AttackSurfaceReport, analyze_config


def run() -> Dict[str, AttackSurfaceReport]:
    return {
        "microvm": analyze_config(microvm_config()),
        "lupine-base": analyze_config(lupine_base_config()),
        "lupine-general": analyze_config(lupine_general_config()),
    }


def table(reports: Dict[str, AttackSurfaceReport]) -> Table:
    output = Table(
        title="Extension: attack surface & CVE nullification",
        headers=["config", "surface MB", "reachable syscalls",
                 "CVEs nullified %", "surface reduction vs microVM %"],
    )
    baseline = reports["microvm"]
    for name, report in reports.items():
        output.add_row(
            name,
            report.surface_kb / 1024.0,
            report.reachable_syscalls,
            report.nullification_rate * 100.0,
            report.surface_reduction_vs(baseline) * 100.0,
        )
    return output
