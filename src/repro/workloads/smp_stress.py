"""The Section 5 SMP worst-case experiments.

Three workloads on one processor, comparing an SMP-enabled kernel against a
UP kernel: ``sem_posix`` and ``futex`` spawn up to 512 workers (4 processes
sharing a futex/semaphore each) rapidly exercising wait/post, and ``make -j``
models a parallel kernel build.  The paper measures at most 3%, 8% and 3%
overhead respectively -- SMP support is nearly free even when unused.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sched.futex import FutexTable, PosixSemaphore
from repro.sched.scheduler import Scheduler
from repro.sched.smp import SmpModel
from repro.syscall.cpu import CpuCostModel, EntryMechanism


@dataclass
class StressResult:
    """One stress run: simulated seconds of wall-clock."""

    workload: str
    workers: int
    smp_enabled: bool
    elapsed_s: float


def _scheduler(smp_enabled: bool) -> Scheduler:
    cost_model = CpuCostModel.for_options((), entry=EntryMechanism.SYSCALL)
    return Scheduler(
        cost_model=cost_model, smp=SmpModel(smp_enabled=smp_enabled, cpus=1)
    )


def run_futex_stress(
    workers: int, smp_enabled: bool, ops_per_worker: int = 40
) -> StressResult:
    """Workers of 4 processes sharing a futex, ping-ponging wait/wake."""
    scheduler = _scheduler(smp_enabled)
    futexes = FutexTable(scheduler)
    for worker in range(workers):
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
    return StressResult(
        workload="futex",
        workers=workers,
        smp_enabled=smp_enabled,
        elapsed_s=scheduler.clock_ns / 1e9,
    )


def run_sem_posix_stress(
    workers: int, smp_enabled: bool, ops_per_worker: int = 40
) -> StressResult:
    """Workers of 4 processes sharing a POSIX semaphore (mostly fast path)."""
    scheduler = _scheduler(smp_enabled)
    futexes = FutexTable(scheduler)
    for worker in range(workers):
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
    return StressResult(
        workload="sem_posix",
        workers=workers,
        smp_enabled=smp_enabled,
        elapsed_s=scheduler.clock_ns / 1e9,
    )


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


def smp_overhead(workload: str, workers: int) -> float:
    """Fractional SMP-on-1-CPU overhead for one workload/worker count."""
    runners = {
        "futex": run_futex_stress,
        "sem_posix": run_sem_posix_stress,
        "make-j": run_make_j,
    }
    run = runners[workload]
    with_smp = run(workers, True)
    without_smp = run(workers, False)
    return with_smp.elapsed_s / without_smp.elapsed_s - 1.0
