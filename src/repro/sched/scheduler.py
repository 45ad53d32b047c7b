"""A deterministic run-queue scheduler with cost accounting.

Implements just enough of CFS-style scheduling for the paper's experiments:
round-robin over ready tasks, sleep/wake, fork/thread-create/exec/exit, and
context-switch cost accounting that distinguishes same-address-space
(thread) switches from cross-address-space (process) switches and charges
SMP lock overhead when the kernel is built with CONFIG_SMP.

The ready queue is an insertion-ordered ``OrderedDict`` keyed by pid:
append, pop-front and removal of a sleeping or exiting task are all O(1)
(the Section 5 stresses park thousands of tasks).  A pid is queued at most
once -- only sleeping, new or descheduled tasks are enqueued, and each
leaves the queue before it runs, sleeps or exits -- so the keyed queue
picks exactly the order a FIFO deque would.  A plain dict would not do:
``next(iter(d))`` rescans the deleted slots at its front.

Each clock charge is computed once, by the model that owns it: the
wake-up charge and the two base switch charges (thread and process) at
construction -- :class:`~repro.syscall.cpu.CpuCostModel` and
:class:`~repro.sched.smp.SmpModel` are frozen and neither field is
reassigned -- and the full switch charge by :meth:`Scheduler._switch_ns`.
The stepped methods charge through them, and so does the Section 5 fold
(:mod:`repro.workloads.smp_stress`), which replays a stress's clock
additions without running its tasks.  ``_switch_ns`` stays off the public
method surface: perfbench times every public method as a boundary, and
``schedule()`` calls it on every switch.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sched.smp import SmpModel
from repro.sched.task import Task, TaskKind, TaskState
from repro.simcore.clock import VirtualClock
from repro.syscall.cpu import CpuCostModel


class SchedulerError(RuntimeError):
    """Raised on invalid scheduling operations (e.g. waking a zombie)."""


#: Cache refill per KiB of working set on a switch (shared with lmbench).
CACHE_REFILL_NS_PER_KB = 9.0


@dataclass
class Scheduler:
    """One simulated kernel's scheduler."""

    cost_model: CpuCostModel
    smp: SmpModel = field(default_factory=lambda: SmpModel(smp_enabled=False))
    clock: VirtualClock = field(default_factory=VirtualClock)
    switch_count: int = 0
    _tasks: Dict[int, Task] = field(default_factory=dict)
    _ready: "OrderedDict[int, None]" = field(default_factory=OrderedDict)
    _next_pid: int = 1
    _next_asid: int = 1
    current: Optional[Task] = None
    #: Clock charge of one wake-up: run-queue insert plus an SMP lock pair.
    wake_ns: float = field(init=False, repr=False)
    #: Switch charge before cache refill, indexed by "same address space".
    _switch_base_ns: Tuple[float, float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.wake_ns = 350.0 + self.smp.lock_pair_ns()
        overhead = self.smp.switch_overhead_ns()
        self._switch_base_ns = (
            self.cost_model.context_switch_ns(False) + overhead,
            self.cost_model.context_switch_ns(True) + overhead,
        )

    @property
    def clock_ns(self) -> float:
        """Simulated nanoseconds accumulated on this scheduler's clock."""
        return self.clock.now_ns

    # -- task lifecycle ----------------------------------------------------

    def spawn(self, name: str, working_set_kb: int = 0,
              kernel_mode: bool = False) -> Task:
        """Create the initial process of a new address space."""
        task = Task(
            pid=self._alloc_pid(),
            name=name,
            kind=TaskKind.PROCESS,
            address_space_id=self._alloc_asid(),
            kernel_mode=kernel_mode,
            working_set_kb=working_set_kb,
        )
        self._admit(task)
        return task

    def fork(self, parent: Task) -> Task:
        """Fork *parent*: a new process in a new (COW) address space."""
        self._check_alive(parent)
        child = Task(
            pid=self._alloc_pid(),
            name=f"{parent.name}",
            kind=TaskKind.PROCESS,
            address_space_id=self._alloc_asid(),
            parent_pid=parent.pid,
            kernel_mode=parent.kernel_mode,
            working_set_kb=parent.working_set_kb,
        )
        self._admit(child)
        self.clock.advance(1600.0 + 0.4 * parent.working_set_kb)  # COW setup
        return child

    def create_thread(self, parent: Task, name: Optional[str] = None) -> Task:
        """Create a thread sharing *parent*'s address space."""
        self._check_alive(parent)
        thread = Task(
            pid=self._alloc_pid(),
            name=name or f"{parent.name}-thr",
            kind=TaskKind.THREAD,
            address_space_id=parent.address_space_id,
            parent_pid=parent.pid,
            kernel_mode=parent.kernel_mode,
            working_set_kb=parent.working_set_kb,
        )
        self._admit(thread)
        self.clock.advance(900.0)
        return thread

    def exec(self, task: Task, name: str, working_set_kb: int = 0) -> Task:
        """Replace *task*'s image (exec); keeps pid, resets working set."""
        self._check_alive(task)
        task.name = name
        task.working_set_kb = working_set_kb
        self.clock.advance(5200.0)
        return task

    def exit(self, task: Task, code: int = 0) -> None:
        self._check_alive(task)
        task.state = TaskState.ZOMBIE
        task.exit_code = code
        self._ready.pop(task.pid, None)
        if self.current is task:
            self.current = None
        self.clock.advance(300.0)

    # -- state transitions ---------------------------------------------------

    def sleep(self, task: Task) -> None:
        """Move *task* to the sleeping state (e.g. a control process)."""
        state = task.state
        if state is TaskState.ZOMBIE:
            raise SchedulerError(f"{task} is a zombie")
        if state is TaskState.SLEEPING:
            return
        self._ready.pop(task.pid, None)
        if self.current is task:
            self.current = None
        task.state = TaskState.SLEEPING

    def wake(self, task: Task) -> None:
        state = task.state
        if state is TaskState.ZOMBIE:
            raise SchedulerError(f"{task} is a zombie")
        if state is not TaskState.SLEEPING:
            return
        task.state = TaskState.READY
        self._ready[task.pid] = None
        self.clock.advance(self.wake_ns)

    # -- scheduling -----------------------------------------------------------

    def schedule(self) -> Optional[Task]:
        """Pick and switch to the next ready task; returns it (or None).

        Charges the switch cost: base switch + address-space cost if the
        incoming task lives in a different address space + cache refill for
        its working set + SMP overhead.  Sleeping tasks cost nothing -- the
        mechanism behind Figure 11's flat lines.
        """
        previous = self.current
        ready = self._ready
        if previous is not None and previous.state is TaskState.RUNNING:
            previous.state = TaskState.READY
            ready[previous.pid] = None
        if not ready:
            self.current = None
            return None
        next_task = self._tasks[ready.popitem(last=False)[0]]
        next_task.state = TaskState.RUNNING
        if previous is not None and previous is not next_task:
            # Runnable: the tasks still queued plus the outgoing one.
            cost = self._switch_ns(
                previous.address_space_id == next_task.address_space_id,
                next_task.working_set_kb, len(ready) + 1,
            )
            self.clock.advance(cost)
            self.switch_count += 1
            next_task.vruntime_ns += cost
        self.current = next_task
        return next_task

    def run_for(self, task: Task, duration_ns: float) -> None:
        """Run *task* for a simulated CPU burst."""
        if self.current is not task:
            raise SchedulerError(f"{task} is not current")
        self.clock.advance(duration_ns)
        task.vruntime_ns += duration_ns

    # -- queries ---------------------------------------------------------------

    def task(self, pid: int) -> Task:
        try:
            return self._tasks[pid]
        except KeyError:
            raise SchedulerError(f"no such pid {pid}") from None

    def tasks(self) -> List[Task]:
        return list(self._tasks.values())

    def ready_count(self) -> int:
        return len(self._ready)

    def sleeping_count(self) -> int:
        return sum(
            1 for t in self._tasks.values() if t.state is TaskState.SLEEPING
        )

    # -- internals ----------------------------------------------------------------

    def _switch_ns(self, same_space: bool, working_set_kb: int,
                   runnable: int) -> float:
        """Charge of one context switch to a task with *working_set_kb*
        of working set, with *runnable* tasks competing for the cache.

        The base switch charge (address-space cost if *same_space* is
        false, SMP overhead) plus the cache refill of the incoming
        working set, up to 64 KiB, scaled by cache pressure, which
        saturates at 16 runnable tasks.
        """
        refill_ns = CACHE_REFILL_NS_PER_KB * min(working_set_kb, 64)
        return self._switch_base_ns[same_space] + refill_ns * min(
            1.0, runnable / 16.0
        )

    def _alloc_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _alloc_asid(self) -> int:
        asid = self._next_asid
        self._next_asid += 1
        return asid

    def _admit(self, task: Task) -> None:
        self._tasks[task.pid] = task
        self._ready[task.pid] = None

    @staticmethod
    def _check_alive(task: Task) -> None:
        if not task.alive:
            raise SchedulerError(f"{task} is a zombie")
