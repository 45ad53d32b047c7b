"""Section 5: worst-case overhead of CONFIG_SMP on a single processor.

Each series is one sweep per SMP setting: the futex and semaphore
stresses run once, to the largest worker count, and read every smaller
count from that run's prefix.  This is exact, not an approximation: a
*k*-worker run is the first *k* workers of any longer run, since workers
are spawned and run in order and nothing runs after the last one (see
:mod:`repro.workloads.smp_stress`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.metrics.reporting import Table
from repro.workloads.smp_stress import run_make_j, smp_overhead

WORKER_COUNTS = (1, 4, 16, 64, 256, 512)


def run() -> Dict[str, List[Tuple[int, float]]]:
    """workload -> [(workers, fractional overhead), ...]."""
    return {
        "sem_posix": smp_overhead("sem_posix", WORKER_COUNTS),
        "futex": smp_overhead("futex", WORKER_COUNTS),
        "make-j": smp_overhead("make-j", (1, 2, 8, 64, 512)),
    }


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
