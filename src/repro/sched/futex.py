"""Futexes and POSIX semaphores over the simulated scheduler.

These implement real wait/wake semantics (values, wait queues, FIFO
wakeup), with SMP lock overhead charged per operation through the
kernel's :class:`~repro.sched.smp.SmpModel`.  Each operation's clock
charge is one formula, :func:`futex_op_ns` or :func:`sem_op_ns`,
computed once per table or semaphore.

No shipped path steps this model.  The Section 5 stresses
(:mod:`repro.workloads.smp_stress`) fold each round into the clock
charges it makes, read from the same two formulas and the scheduler.
:class:`FutexTable` and :class:`PosixSemaphore` stay in ``src/`` as
the model that fold replays: the stepped stresses in
``tests/oracles/smp_stress.py`` drive them, and perfbench's traced run
wraps ``FutexTable`` by name (its ``sched.futex`` boundary), so the
classes can move to ``tests/oracles/`` once that boundary is dropped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict

from repro.sched.scheduler import Scheduler
from repro.sched.smp import SmpModel
from repro.sched.task import Task

#: Base in-kernel cost of one futex operation (hash lookup + queue op).
FUTEX_OP_NS = 28.0

#: POSIX semaphores add a small layer over futex in the kernel/libc split.
SEM_OP_NS = 38.0


def futex_op_ns(smp: SmpModel) -> float:
    """Clock charge of one futex wait or wake on a kernel with *smp*."""
    return FUTEX_OP_NS + smp.futex_overhead_ns()


def sem_op_ns(smp: SmpModel) -> float:
    """Clock charge of one semaphore wait or post on a kernel with *smp*."""
    return SEM_OP_NS + smp.futex_overhead_ns()


@dataclass
class FutexTable:
    """The kernel's futex hash table for one simulated kernel instance."""

    scheduler: Scheduler
    _values: Dict[int, int] = field(default_factory=dict)
    _waiters: Dict[int, Deque[Task]] = field(default_factory=dict)
    wait_count: int = 0
    wake_count: int = 0
    _op_ns: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._op_ns = futex_op_ns(self.scheduler.smp)

    def value(self, address: int) -> int:
        return self._values.get(address, 0)

    def store(self, address: int, value: int) -> None:
        self._values[address] = value

    def wait(self, task: Task, address: int, expected: int) -> bool:
        """FUTEX_WAIT: sleep *task* if the value still equals *expected*.

        Returns True if the task went to sleep, False on the EAGAIN path
        (value changed before we could sleep).
        """
        self.scheduler.clock.advance(self._op_ns)
        self.wait_count += 1
        if self.value(address) != expected:
            return False
        self._waiters.setdefault(address, deque()).append(task)
        self.scheduler.sleep(task)
        return True

    def wake(self, address: int, count: int = 1) -> int:
        """FUTEX_WAKE: wake up to *count* waiters; returns how many woke."""
        self.scheduler.clock.advance(self._op_ns)
        self.wake_count += 1
        queue = self._waiters.get(address)
        woken = 0
        while queue and woken < count:
            task = queue.popleft()
            self.scheduler.wake(task)
            woken += 1
        return woken

    def waiters(self, address: int) -> int:
        return len(self._waiters.get(address, ()))


@dataclass
class PosixSemaphore:
    """A POSIX semaphore implemented over the futex table.

    Matches glibc's fast path: uncontended post/wait are a single atomic op
    (plus SMP lock cost); contention falls through to futex wait/wake.
    """

    futexes: FutexTable
    address: int
    initial: int = 0
    _op_ns: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._op_ns = sem_op_ns(self.futexes.scheduler.smp)
        self.futexes.store(self.address, self.initial)

    @property
    def value(self) -> int:
        return self.futexes.value(self.address)

    def post(self) -> None:
        self.futexes.scheduler.clock.advance(self._op_ns)
        self.futexes.store(self.address, self.value + 1)
        if self.futexes.waiters(self.address):
            self.futexes.wake(self.address, 1)

    def wait(self, task: Task) -> bool:
        """sem_wait: returns True if acquired immediately, False if slept."""
        self.futexes.scheduler.clock.advance(self._op_ns)
        if self.value > 0:
            self.futexes.store(self.address, self.value - 1)
            return True
        self.futexes.wait(task, self.address, 0)
        return False

    def try_consume_after_wake(self) -> bool:
        """After a wakeup, retry the decrement (loser goes back to sleep)."""
        if self.value > 0:
            self.futexes.store(self.address, self.value - 1)
            return True
        return False
