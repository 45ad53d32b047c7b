"""The Section 5 SMP worst-case experiments.

Three workloads on one processor, comparing an SMP-enabled kernel against a
UP kernel: ``sem_posix`` and ``futex`` run up to 512 workers (4 processes
sharing a futex/semaphore each) rapidly exercising wait/post, and ``make -j``
models a parallel kernel build.  The paper measures at most 3%, 8% and 3%
overhead respectively -- SMP support is nearly free even when unused.

The futex and semaphore stresses take a sorted sweep of worker counts and
run one simulation, to the largest count, reading each count's elapsed
time from the scheduler clock as its last worker finishes.  That reading
is exactly what a separate run of that many workers ends on: workers run
one after another on one scheduler, nothing runs after the last one, so a
*k*-worker run is the first *k* workers of any longer run, float for
float.  A single count is a one-element sweep.

Neither stress runs its tasks.  Each round is the fixed sequence of clock
charges the scheduler (:class:`~repro.sched.scheduler.Scheduler`) and the
futex model (:mod:`repro.sched.futex`) would make stepping it, read from
the formulas they charge through and added with ``advance`` in the same
order, so every float is the stepped run's.  Stepped, worker *w* (from 0)
spawns four 8 KiB processes, which join the earlier workers' ``4w``; all
of them stay runnable.

- **futex**, every round: a ``FUTEX_WAIT`` charge, 600 ns of work
  holding the lock, a ``FUTEX_WAKE`` charge, the waiter's wake-up charge,
  and then a process-to-process switch with ``4(w+1)`` tasks runnable.
  The first round of the run has no switch: no task has run yet, so
  ``schedule()`` switches from nothing.  The fold is exact because the
  waiter never runs: it sleeps, is woken onto the back of the run queue,
  and the task that ran is queued behind it, so ``schedule()`` always
  switches between two distinct processes of 8 KiB with every spawned
  task runnable.  Cache pressure saturates from ``w = 3``.
- **sem_posix**, every round: a ``sem_wait`` charge, 1,800 ns of
  critical-section work and a ``sem_post`` charge.  Each worker's
  semaphore starts at 1 and its rounds run one at a time, so every wait
  takes the fast path, no post finds a waiter, and nothing switches.

The stepped stresses are the oracle in ``tests/oracles/smp_stress.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.sched.futex import futex_op_ns, sem_op_ns
from repro.sched.scheduler import Scheduler
from repro.sched.smp import SmpModel
from repro.syscall.cpu import CpuCostModel, EntryMechanism

#: Processes sharing one worker's futex or semaphore.
PROCESSES_PER_WORKER = 4
#: Working set of each worker process, in KiB.
WORKER_WORKING_SET_KB = 8
#: Userspace work holding the futex in one round.
FUTEX_HOLD_NS = 600.0
#: Critical-section userspace work in one semaphore round.
SEM_HOLD_NS = 1800.0


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
    advance = scheduler.clock.advance
    op_ns = futex_op_ns(scheduler.smp)
    wake_ns = scheduler.wake_ns
    results: List[StressResult] = []
    ran = False  # whether schedule() has picked a task yet
    for worker in _workers("futex", worker_counts, smp_enabled, scheduler,
                           results):
        switch_ns = scheduler._switch_ns(
            False, WORKER_WORKING_SET_KB, PROCESSES_PER_WORKER * (worker + 1)
        )
        for _ in range(ops_per_worker):
            advance(op_ns)  # FUTEX_WAIT: the waiter sleeps
            advance(FUTEX_HOLD_NS)
            advance(op_ns)  # FUTEX_WAKE
            advance(wake_ns)  # the waiter joins the back of the run queue
            if ran:
                advance(switch_ns)  # schedule(): the queue's front runs
            ran = True
    return results


def run_sem_posix_stress(
    worker_counts: Sequence[int], smp_enabled: bool, ops_per_worker: int = 40
) -> List[StressResult]:
    """Workers of 4 processes sharing a POSIX semaphore (all fast path).

    One result per count of the sorted *worker_counts*, from one run.
    """
    scheduler = _scheduler(smp_enabled)
    advance = scheduler.clock.advance
    op_ns = sem_op_ns(scheduler.smp)
    results: List[StressResult] = []
    for _ in _workers("sem_posix", worker_counts, smp_enabled, scheduler,
                      results):
        for _ in range(ops_per_worker):
            advance(op_ns)  # sem_wait takes the count
            advance(SEM_HOLD_NS)
            advance(op_ns)  # sem_post: no waiter to wake
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
