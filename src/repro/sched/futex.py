"""Futexes and POSIX semaphores over the simulated scheduler.

These implement real wait/wake semantics (values, wait queues, FIFO wakeup)
so the Section 5 stress workloads (``futex`` and ``sem_posix``) exercise
actual synchronization behaviour, with SMP lock overhead charged per
operation through the kernel's :class:`~repro.sched.smp.SmpModel`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict

from repro.sched.scheduler import Scheduler
from repro.sched.task import Task

#: Base in-kernel cost of one futex operation (hash lookup + queue op).
FUTEX_OP_NS = 28.0

#: POSIX semaphores add a small layer over futex in the kernel/libc split.
SEM_OP_NS = 38.0


@dataclass
class FutexTable:
    """The kernel's futex hash table for one simulated kernel instance."""

    scheduler: Scheduler
    _values: Dict[int, int] = field(default_factory=dict)
    _waiters: Dict[int, Deque[Task]] = field(default_factory=dict)
    wait_count: int = 0
    wake_count: int = 0

    def value(self, address: int) -> int:
        return self._values.get(address, 0)

    def store(self, address: int, value: int) -> None:
        self._values[address] = value

    def _charge(self, base_ns: float) -> None:
        self.scheduler.clock.advance(
            base_ns + self.scheduler.smp.futex_overhead_ns()
        )

    def wait(self, task: Task, address: int, expected: int) -> bool:
        """FUTEX_WAIT: sleep *task* if the value still equals *expected*.

        Returns True if the task went to sleep, False on the EAGAIN path
        (value changed before we could sleep).
        """
        self._charge(FUTEX_OP_NS)
        self.wait_count += 1
        if self.value(address) != expected:
            return False
        self._waiters.setdefault(address, deque()).append(task)
        self.scheduler.sleep(task)
        return True

    def wake(self, address: int, count: int = 1) -> int:
        """FUTEX_WAKE: wake up to *count* waiters; returns how many woke."""
        self._charge(FUTEX_OP_NS)
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

    def __post_init__(self) -> None:
        self.futexes.store(self.address, self.initial)

    @property
    def value(self) -> int:
        return self.futexes.value(self.address)

    def post(self) -> None:
        self.futexes.scheduler.clock.advance(
            SEM_OP_NS + self.futexes.scheduler.smp.futex_overhead_ns()
        )
        self.futexes.store(self.address, self.value + 1)
        if self.futexes.waiters(self.address):
            self.futexes.wake(self.address, 1)

    def wait(self, task: Task) -> bool:
        """sem_wait: returns True if acquired immediately, False if slept."""
        self.futexes.scheduler.clock.advance(
            SEM_OP_NS + self.futexes.scheduler.smp.futex_overhead_ns()
        )
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
