"""Section 5: worst-case overhead of CONFIG_SMP on a single processor.

Each series is one sweep per SMP setting: the futex and semaphore
stresses run once, to the largest worker count, and read every smaller
count from that run's prefix.  This is exact, not an approximation: a
*k*-worker run is the first *k* workers of any longer run, since workers
run in order and nothing runs after the last one.

Neither stress steps its tasks.  Each round is the fixed sequence of
clock charges stepping it would make, in the same order (see
:mod:`repro.workloads.smp_stress`):

- futex: wait, 600 ns of work, wake, the waiter's wake-up, then a
  process switch with every spawned task runnable, on every round but
  the run's first.  The woken waiter queues ahead of the task that ran,
  so the waiter never runs and every switch is between two 8 KiB
  processes.
- sem_posix: wait, 1,800 ns of work, post.  Each semaphore starts at 1
  and its worker's rounds run one at a time, so every wait takes the fast
  path and nothing switches.
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
