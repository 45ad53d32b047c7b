"""Tests for the scheduler substrate."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.sched.scheduler import Scheduler, SchedulerError
from repro.sched.smp import SmpModel
from repro.sched.task import TaskKind, TaskState
from repro.syscall.cpu import CpuCostModel


def _scheduler(smp=False):
    return Scheduler(
        cost_model=CpuCostModel.for_options([]),
        smp=SmpModel(smp_enabled=smp, cpus=1),
    )


class _DequeReadyQueue:
    """The ready queue the scheduler kept before it was keyed by pid.

    A FIFO deque of pids behind the ``OrderedDict`` calls the scheduler
    makes, each one the deque call it replaced: ``d[pid] = None`` is
    ``append``, ``popitem(last=False)`` is ``popleft`` and
    ``pop(pid, None)`` is ``in`` + ``remove``.  Unlike the keyed queue it
    can hold a pid twice.
    """

    def __init__(self):
        self.pids = deque()

    def __setitem__(self, pid, _value):
        self.pids.append(pid)

    def popitem(self, last=True):
        assert last is False
        return self.pids.popleft(), None

    def pop(self, pid, default=None):
        if pid in self.pids:
            self.pids.remove(pid)
        return default

    def __len__(self):
        return len(self.pids)

    def __iter__(self):
        return iter(self.pids)


class TestLifecycle:
    def test_spawn_creates_ready_process(self):
        sched = _scheduler()
        task = sched.spawn("init")
        assert task.kind is TaskKind.PROCESS
        assert task.state is TaskState.READY
        assert sched.ready_count() == 1

    def test_pids_unique_and_increasing(self):
        sched = _scheduler()
        pids = [sched.spawn(f"t{i}").pid for i in range(5)]
        assert pids == sorted(set(pids))

    def test_fork_new_address_space(self):
        sched = _scheduler()
        parent = sched.spawn("app")
        child = sched.fork(parent)
        assert child.parent_pid == parent.pid
        assert child.address_space_id != parent.address_space_id
        assert child.kind is TaskKind.PROCESS

    def test_thread_shares_address_space(self):
        sched = _scheduler()
        parent = sched.spawn("app")
        thread = sched.create_thread(parent)
        assert thread.address_space_id == parent.address_space_id
        assert thread.kind is TaskKind.THREAD

    def test_fork_inherits_kernel_mode(self):
        """KML processes stay kernel-mode across fork (Section 3.2)."""
        sched = _scheduler()
        parent = sched.spawn("app", kernel_mode=True)
        assert sched.fork(parent).kernel_mode

    def test_exec_replaces_image(self):
        sched = _scheduler()
        task = sched.spawn("sh", working_set_kb=100)
        sched.exec(task, "redis-server", working_set_kb=2000)
        assert task.name == "redis-server"
        assert task.working_set_kb == 2000

    def test_exit_makes_zombie(self):
        sched = _scheduler()
        task = sched.spawn("app")
        sched.exit(task, code=3)
        assert task.state is TaskState.ZOMBIE
        assert task.exit_code == 3
        assert not task.alive
        assert sched.ready_count() == 0

    def test_operations_on_zombie_rejected(self):
        sched = _scheduler()
        task = sched.spawn("app")
        sched.exit(task)
        for operation in (sched.fork, sched.sleep, sched.wake):
            with pytest.raises(SchedulerError):
                operation(task)

    def test_task_lookup(self):
        sched = _scheduler()
        task = sched.spawn("app")
        assert sched.task(task.pid) is task
        with pytest.raises(SchedulerError):
            sched.task(9999)


class TestSleepWake:
    def test_sleep_removes_from_ready(self):
        sched = _scheduler()
        task = sched.spawn("ctl")
        sched.sleep(task)
        assert task.state is TaskState.SLEEPING
        assert sched.ready_count() == 0
        assert sched.sleeping_count() == 1

    def test_wake_requeues(self):
        sched = _scheduler()
        task = sched.spawn("ctl")
        sched.sleep(task)
        sched.wake(task)
        assert task.state is TaskState.READY
        assert sched.ready_count() == 1

    def test_wake_of_ready_task_is_noop(self):
        sched = _scheduler()
        task = sched.spawn("app")
        clock = sched.clock_ns
        sched.wake(task)
        assert sched.clock_ns == clock

    def test_sleeping_tasks_never_scheduled(self):
        sched = _scheduler()
        app = sched.spawn("app")
        for index in range(10):
            sched.sleep(sched.spawn(f"ctl{index}"))
        for _ in range(5):
            assert sched.schedule() is app


class TestSwitchAccounting:
    def test_first_schedule_costs_nothing(self):
        sched = _scheduler()
        sched.spawn("app")
        sched.schedule()
        assert sched.switch_count == 0

    def test_round_robin_switches(self):
        sched = _scheduler()
        a, b = sched.spawn("a"), sched.spawn("b")
        first = sched.schedule()
        second = sched.schedule()
        assert {first.pid, second.pid} == {a.pid, b.pid}
        assert sched.switch_count == 1
        assert sched.clock_ns > 0

    def test_sleeping_population_does_not_change_switch_cost(self):
        """The Figure 11 mechanism."""
        def switch_cost(sleepers):
            sched = _scheduler()
            a, b = sched.spawn("a"), sched.spawn("b")
            for index in range(sleepers):
                sched.sleep(sched.spawn(f"s{index}"))
            sched.schedule()
            before = sched.clock_ns
            sched.schedule()
            return sched.clock_ns - before

        assert switch_cost(0) == pytest.approx(switch_cost(1024))

    def test_smp_makes_switches_dearer(self):
        def cost(smp):
            sched = _scheduler(smp=smp)
            sched.spawn("a"), sched.spawn("b")
            sched.schedule()
            before = sched.clock_ns
            sched.schedule()
            return sched.clock_ns - before

        assert cost(True) > cost(False)

    def test_run_for_requires_current(self):
        sched = _scheduler()
        task = sched.spawn("app")
        with pytest.raises(SchedulerError):
            sched.run_for(task, 100)
        sched.schedule()
        sched.run_for(task, 100)
        assert task.vruntime_ns >= 100


class TestSchedulerProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["spawn", "fork", "thread", "sleep",
                                     "wake", "schedule", "exit"]),
                    min_size=1, max_size=60))
    def test_invariants_under_random_operations(self, operations):
        """Ready queue and task states stay consistent under any op mix."""
        sched = _scheduler()
        root = sched.spawn("root")
        for operation in operations:
            alive = [t for t in sched.tasks() if t.alive]
            if not alive:
                break
            victim = alive[len(alive) // 2]
            if operation == "spawn":
                sched.spawn("x")
            elif operation == "fork":
                sched.fork(victim)
            elif operation == "thread":
                sched.create_thread(victim)
            elif operation == "sleep":
                sched.sleep(victim)
            elif operation == "wake":
                sched.wake(victim)
            elif operation == "schedule":
                sched.schedule()
            elif operation == "exit":
                sched.exit(victim)
            # Invariants:
            ready_pids = list(sched._ready)
            assert len(ready_pids) == len(set(ready_pids))
            for pid in ready_pids:
                assert sched.task(pid).state is TaskState.READY
            if sched.current is not None:
                assert sched.current.state is TaskState.RUNNING
                assert sched.current.pid not in ready_pids
            for task in sched.tasks():
                if task.state is TaskState.SLEEPING:
                    assert task.pid not in ready_pids

    @settings(max_examples=60, deadline=None)
    @given(st.booleans(),
           st.lists(st.tuples(st.sampled_from(["spawn", "fork", "thread",
                                               "sleep", "wake", "schedule",
                                               "exit", "run"]),
                              st.integers(min_value=0, max_value=96)),
                    min_size=1, max_size=80))
    def test_keyed_queue_matches_deque_reference(self, smp, operations):
        """The keyed ready queue replays the deque's schedule exactly:
        same picks, same switch count, bit-identical clock."""
        keyed = _scheduler(smp)
        reference = _scheduler(smp)
        reference._ready = _DequeReadyQueue()
        keyed_picks, reference_picks = [], []
        for operation, argument in operations:
            alive = [t.pid for t in keyed.tasks() if t.alive]
            for sched, picks in ((keyed, keyed_picks),
                                 (reference, reference_picks)):
                victim = (sched.task(alive[argument % len(alive)])
                          if alive else None)
                if operation == "spawn":
                    sched.spawn("x", working_set_kb=argument)
                elif victim is None:
                    continue
                elif operation == "fork":
                    sched.fork(victim)
                elif operation == "thread":
                    sched.create_thread(victim)
                elif operation == "sleep":
                    sched.sleep(victim)
                elif operation == "wake":
                    sched.wake(victim)
                elif operation == "schedule":
                    task = sched.schedule()
                    picks.append(None if task is None else task.pid)
                elif operation == "exit":
                    sched.exit(victim)
                elif operation == "run" and sched.current is not None:
                    sched.run_for(sched.current, 10.0 * argument + 0.1)
            reference_pids = list(reference._ready)
            assert len(reference_pids) == len(set(reference_pids))
            assert list(keyed._ready) == reference_pids
            assert keyed_picks == reference_picks
            assert keyed.switch_count == reference.switch_count
            assert keyed.clock.now_ns.hex() == reference.clock.now_ns.hex()
