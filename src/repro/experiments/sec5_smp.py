"""Section 5: worst-case overhead of CONFIG_SMP on a single processor."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.metrics.reporting import Table
from repro.workloads.smp_stress import run_make_j, smp_overhead

WORKER_COUNTS = (1, 4, 16, 64, 256, 512)


def run() -> Dict[str, List[Tuple[int, float]]]:
    """workload -> [(workers, fractional overhead), ...]."""
    results: Dict[str, List[Tuple[int, float]]] = {}
    for workload in ("sem_posix", "futex"):
        results[workload] = [
            (workers, smp_overhead(workload, workers))
            for workers in WORKER_COUNTS
        ]
    results["make-j"] = [
        (jobs, smp_overhead("make-j", jobs)) for jobs in (1, 2, 8, 64, 512)
    ]
    return results


def dual_cpu_build_speedup() -> float:
    """Building with 2 CPUs vs 1 (the paper: 'almost twice as long')."""
    one = run_make_j(jobs=2, smp_enabled=True, cpus=1).elapsed_s
    two = run_make_j(jobs=2, smp_enabled=True, cpus=2).elapsed_s
    return one / two


def table(results: Dict[str, List[Tuple[int, float]]]) -> Table:
    output = Table(
        title="Section 5: SMP overhead on one processor",
        headers=["workload", "workers", "overhead %"],
    )
    for workload, points in results.items():
        for workers, overhead in points:
            output.add_row(workload, workers, overhead * 100.0)
    return output
