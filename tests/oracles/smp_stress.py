"""The Section 5 stresses stepped through the real scheduler and futexes.

:mod:`repro.workloads.smp_stress` folds each stress round into the clock
charges it makes.  This oracle runs the rounds the way they ran before
the fold: every worker spawns four 8 KiB processes on a
:class:`~repro.sched.scheduler.Scheduler` and drives a
:class:`~repro.sched.futex.FutexTable` or
:class:`~repro.sched.futex.PosixSemaphore` through wait, work, wake or
post and, where a round needs one, ``schedule()``.  The fold must equal
it float for float (``tests/test_workloads.py::TestSmpStress``).
"""

from __future__ import annotations

from repro.sched.futex import FutexTable, PosixSemaphore
from repro.sched.scheduler import Scheduler
from repro.sched.smp import SmpModel
from repro.syscall.cpu import CpuCostModel, EntryMechanism


def run_stress_stepped(workload: str, workers: int, smp_enabled: bool,
                       ops_per_worker: int = 40) -> float:
    """Simulated seconds one stepped run of *workers* workers takes.

    *workload* is ``"futex"`` or ``"sem_posix"``.
    """
    if workload not in ("futex", "sem_posix"):
        raise KeyError(workload)
    scheduler = Scheduler(
        cost_model=CpuCostModel.for_options((), entry=EntryMechanism.SYSCALL),
        smp=SmpModel(smp_enabled=smp_enabled, cpus=1),
    )
    futexes = FutexTable(scheduler)
    for worker in range(workers):
        if workload == "futex":
            address = 0x1000 + worker * 16
            tasks = [scheduler.spawn(f"futex{worker}.{i}", working_set_kb=8)
                     for i in range(4)]
            futexes.store(address, 0)
            for _ in range(ops_per_worker):
                futexes.wait(tasks[0], address, 0)
                scheduler.clock.advance(600.0)  # work holding the lock
                futexes.wake(address, 1)
                scheduler.schedule()
        else:
            tasks = [scheduler.spawn(f"sem{worker}.{i}", working_set_kb=8)
                     for i in range(4)]
            semaphore = PosixSemaphore(futexes, address=0x9000 + worker * 16,
                                       initial=1)
            for op in range(ops_per_worker):
                acquired = semaphore.wait(tasks[op % 4])
                scheduler.clock.advance(1800.0)  # critical-section work
                semaphore.post()
                if not acquired:
                    scheduler.schedule()  # only contended ops switch
    return scheduler.clock_ns / 1e9
