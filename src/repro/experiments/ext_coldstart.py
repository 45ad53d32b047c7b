"""Extension experiment: serverless cold-start latency (see DESIGN.md §6)."""

from __future__ import annotations

from typing import Dict

from repro.metrics.reporting import Table
from repro.workloads.coldstart import ColdStartResult, run_cold_starts


def run() -> Dict[str, ColdStartResult]:
    return run_cold_starts()


def table(results: Dict[str, ColdStartResult]) -> Table:
    output = Table(
        title="Extension: serverless cold start (redis function)",
        headers=["system", "boot ms", "app init ms", "first req ms",
                 "total ms"],
    )
    for result in sorted(results.values(), key=lambda r: r.total_ms):
        output.add_row(result.system, result.boot_ms, result.app_init_ms,
                       result.first_request_ms, result.total_ms)
    return output
