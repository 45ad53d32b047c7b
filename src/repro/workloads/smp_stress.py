"""The Section 5 SMP worst-case experiments.

Three workloads on one processor, comparing an SMP-enabled kernel against a
UP kernel: ``sem_posix`` and ``futex`` spawn up to 512 workers (4 processes
sharing a futex/semaphore each) rapidly exercising wait/post, and ``make -j``
models a parallel kernel build.  The paper measures at most 3%, 8% and 3%
overhead respectively -- SMP support is nearly free even when unused.

The futex and semaphore stresses take a sorted sweep of worker counts and
run one simulation, to the largest count, reading each count's elapsed
time from the scheduler clock as its last worker finishes.  That reading
is exactly what a separate run of that many workers ends on: workers are
spawned and run one after another on one scheduler, nothing runs after
the last one, so a *k*-worker run is the first *k* workers of any longer
run, float for float.  A single count is a one-element sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.sched.futex import FutexTable, PosixSemaphore
from repro.sched.scheduler import Scheduler
from repro.sched.smp import SmpModel
from repro.syscall.cpu import CpuCostModel, EntryMechanism


@dataclass
class StressResult:
    """Simulated seconds of wall-clock a stress run takes with *workers*."""

    workload: str
    workers: int
    smp_enabled: bool
    elapsed_s: float


def _scheduler(smp_enabled: bool) -> Scheduler:
    cost_model = CpuCostModel.for_options((), entry=EntryMechanism.SYSCALL)
    return Scheduler(
        cost_model=cost_model, smp=SmpModel(smp_enabled=smp_enabled, cpus=1)
    )


def _workers(workload: str, worker_counts: Sequence[int], smp_enabled: bool,
             scheduler: Scheduler,
             results: List[StressResult]) -> Iterator[int]:
    """Worker indices 0, 1, ... up to the largest of *worker_counts*.

    Once the caller has run a count's last worker, that count's
    :class:`StressResult` is appended to *results*, read from
    *scheduler*'s clock.
    """
    if list(worker_counts) != sorted(worker_counts):
        raise ValueError(f"worker counts must be sorted: {worker_counts}")
    done = 0
    for count in worker_counts:
        while done < count:
            yield done
            done += 1
        results.append(StressResult(
            workload=workload,
            workers=count,
            smp_enabled=smp_enabled,
            elapsed_s=scheduler.clock_ns / 1e9,
        ))


def run_futex_stress(
    worker_counts: Sequence[int], smp_enabled: bool, ops_per_worker: int = 40
) -> List[StressResult]:
    """Workers of 4 processes sharing a futex, ping-ponging wait/wake.

    One result per count of the sorted *worker_counts*, from one run.
    """
    scheduler = _scheduler(smp_enabled)
    futexes = FutexTable(scheduler)
    results: List[StressResult] = []
    for worker in _workers("futex", worker_counts, smp_enabled, scheduler,
                           results):
        address = 0x1000 + worker * 16
        tasks = [
            scheduler.spawn(f"futex{worker}.{i}", working_set_kb=8)
            for i in range(4)
        ]
        futexes.store(address, 0)
        for _ in range(ops_per_worker):
            waiter, waker = tasks[0], tasks[1]
            futexes.wait(waiter, address, 0)
            scheduler.clock.advance(600.0)  # userspace work holding the lock
            futexes.wake(address, 1)
            scheduler.schedule()
    return results


def run_sem_posix_stress(
    worker_counts: Sequence[int], smp_enabled: bool, ops_per_worker: int = 40
) -> List[StressResult]:
    """Workers of 4 processes sharing a POSIX semaphore (mostly fast path).

    One result per count of the sorted *worker_counts*, from one run.
    """
    scheduler = _scheduler(smp_enabled)
    futexes = FutexTable(scheduler)
    results: List[StressResult] = []
    for worker in _workers("sem_posix", worker_counts, smp_enabled,
                           scheduler, results):
        tasks = [
            scheduler.spawn(f"sem{worker}.{i}", working_set_kb=8)
            for i in range(4)
        ]
        semaphore = PosixSemaphore(
            futexes, address=0x9000 + worker * 16, initial=1
        )
        for op in range(ops_per_worker):
            task = tasks[op % 4]
            acquired = semaphore.wait(task)
            scheduler.clock.advance(1800.0)  # critical-section userspace work
            semaphore.post()
            if not acquired:
                scheduler.schedule()  # only contended ops context switch
    return results


#: Kernel compilation model: translation units and per-unit cost.
MAKE_UNITS = 160
UNIT_COMPILE_NS = 5_000_000.0
#: Kernel lock/unlock pairs taken per unit (page faults, VFS, pipes).
UNIT_LOCK_PAIRS = 12_000


def run_make_j(jobs: int, smp_enabled: bool, cpus: int = 1) -> StressResult:
    """``make -jN`` of the kernel: compile units over a worker pool."""
    smp = SmpModel(smp_enabled=smp_enabled, cpus=cpus)
    per_unit_ns = UNIT_COMPILE_NS + UNIT_LOCK_PAIRS * smp.lock_pair_ns()
    # fork+exec of the compiler per unit, plus pipe traffic to make.
    per_unit_ns += 1600.0 + 5200.0 + 40 * 95.0
    total_ns = MAKE_UNITS * per_unit_ns / smp.parallel_speedup(jobs)
    return StressResult(
        workload="make-j",
        workers=jobs,
        smp_enabled=smp_enabled,
        elapsed_s=total_ns / 1e9,
    )


def _run_make_j_sweep(jobs_counts: Sequence[int],
                      smp_enabled: bool) -> List[StressResult]:
    return [run_make_j(jobs, smp_enabled) for jobs in jobs_counts]


def smp_overhead(workload: str,
                 worker_counts: Sequence[int]) -> List[Tuple[int, float]]:
    """``(workers, fractional SMP-on-1-CPU overhead)`` per worker count.

    One run with SMP and one without cover the whole sorted sweep.
    """
    runners = {
        "futex": run_futex_stress,
        "sem_posix": run_sem_posix_stress,
        "make-j": _run_make_j_sweep,
    }
    run = runners[workload]
    with_smp = run(worker_counts, True)
    without_smp = run(worker_counts, False)
    return [
        (on.workers, on.elapsed_s / off.elapsed_s - 1.0)
        for on, off in zip(with_smp, without_smp)
    ]
