"""Tests for the epoll/eventfd/timerfd substrate."""

import pytest

from repro.sched.scheduler import Scheduler
from repro.sched.smp import SmpModel
from repro.sched.task import TaskState
from repro.syscall.dispatch import SyscallEngine, SyscallNotImplemented
from tests.oracles.eventloop import (
    EpollInstance,
    EventLoopError,
    EventMask,
    SimEventFd,
    SimSocket,
    SimTimerFd,
)


def _setup(options=("EPOLL", "EVENTFD", "TIMERFD")):
    engine = SyscallEngine.for_config(options)
    scheduler = Scheduler(
        cost_model=engine.cost_model, smp=SmpModel(smp_enabled=False)
    )
    return engine, scheduler


class TestConfigGating:
    def test_epoll_requires_config(self):
        engine, scheduler = _setup(options=())
        with pytest.raises(SyscallNotImplemented, match="EPOLL"):
            EpollInstance(engine=engine, scheduler=scheduler)

    def test_epoll_available_with_config(self):
        engine, scheduler = _setup()
        EpollInstance(engine=engine, scheduler=scheduler)


class TestInterestList:
    def test_add_modify_remove(self):
        engine, scheduler = _setup()
        epoll = EpollInstance(engine=engine, scheduler=scheduler)
        socket = SimSocket(fd=4)
        epoll.add(socket, EventMask.IN)
        epoll.modify(socket, EventMask.IN | EventMask.OUT)
        epoll.remove(socket)

    def test_duplicate_add_is_eexist(self):
        engine, scheduler = _setup()
        epoll = EpollInstance(engine=engine, scheduler=scheduler)
        socket = SimSocket(fd=4)
        epoll.add(socket, EventMask.IN)
        with pytest.raises(EventLoopError, match="EEXIST"):
            epoll.add(socket, EventMask.IN)

    def test_modify_unknown_is_enoent(self):
        engine, scheduler = _setup()
        epoll = EpollInstance(engine=engine, scheduler=scheduler)
        with pytest.raises(EventLoopError, match="ENOENT"):
            epoll.modify(SimSocket(fd=9), EventMask.IN)


class TestReadiness:
    def test_socket_readable_after_delivery(self):
        socket = SimSocket(fd=4)
        assert not socket.readiness() & EventMask.IN
        socket.deliver(b"ping")
        assert socket.readiness() & EventMask.IN
        assert socket.recv() == b"ping"
        assert not socket.readiness() & EventMask.IN

    def test_socket_writability_tracks_tx_window(self):
        socket = SimSocket(fd=4, tx_window=2)
        assert socket.send(b"a") and socket.send(b"b")
        assert not socket.send(b"c")  # window full
        assert not socket.readiness() & EventMask.OUT
        socket.tx_complete()
        assert socket.readiness() & EventMask.OUT

    def test_hangup_reports_hup_and_in(self):
        socket = SimSocket(fd=4)
        socket.hang_up()
        assert socket.readiness() & EventMask.HUP
        assert socket.readiness() & EventMask.IN

    def test_eventfd_counter_semantics(self):
        efd = SimEventFd(fd=5)
        assert not efd.readiness() & EventMask.IN
        efd.signal(3)
        efd.signal()
        assert efd.readiness() & EventMask.IN
        assert efd.consume() == 4
        assert not efd.readiness() & EventMask.IN
        with pytest.raises(EventLoopError):
            efd.signal(0)

    def test_timerfd_fires_on_simulated_clock(self):
        engine, scheduler = _setup()
        tfd = SimTimerFd(fd=6, engine=engine)
        tfd.arm(delay_ns=1000.0)
        assert not tfd.readiness() & EventMask.IN
        engine.cpu_work(1500.0)
        assert tfd.readiness() & EventMask.IN
        tfd.acknowledge()
        assert tfd.expirations == 1
        assert not tfd.readiness() & EventMask.IN


class TestWaitAndWake:
    def test_wait_returns_ready_events_immediately(self):
        engine, scheduler = _setup()
        epoll = EpollInstance(engine=engine, scheduler=scheduler)
        socket = SimSocket(fd=4)
        socket.deliver(b"x")
        epoll.add(socket, EventMask.IN)
        task = scheduler.spawn("server")
        events = epoll.wait(task)
        assert events and events[0][0] is socket
        assert task.state is not TaskState.SLEEPING

    def test_wait_blocks_until_notify(self):
        engine, scheduler = _setup()
        epoll = EpollInstance(engine=engine, scheduler=scheduler)
        socket = SimSocket(fd=4)
        epoll.add(socket, EventMask.IN)
        task = scheduler.spawn("server")
        assert epoll.wait(task) == []
        assert task.state is TaskState.SLEEPING
        socket.deliver(b"request")
        assert epoll.notify() == 1
        assert task.state is TaskState.READY
        assert epoll.wait(task)  # now ready

    def test_notify_without_events_wakes_nobody(self):
        engine, scheduler = _setup()
        epoll = EpollInstance(engine=engine, scheduler=scheduler)
        socket = SimSocket(fd=4)
        epoll.add(socket, EventMask.IN)
        task = scheduler.spawn("server")
        epoll.wait(task)
        assert epoll.notify() == 0
        assert task.state is TaskState.SLEEPING

    def test_mask_filters_events(self):
        engine, scheduler = _setup()
        epoll = EpollInstance(engine=engine, scheduler=scheduler)
        socket = SimSocket(fd=4)
        socket.deliver(b"x")
        epoll.add(socket, EventMask.OUT)  # not interested in IN
        task = scheduler.spawn("server")
        events = epoll.wait(task)
        assert events and not events[0][1] & EventMask.IN

    def test_level_triggered_fires_repeatedly(self):
        engine, scheduler = _setup()
        epoll = EpollInstance(engine=engine, scheduler=scheduler)
        socket = SimSocket(fd=4)
        socket.deliver(b"x")
        epoll.add(socket, EventMask.IN)
        task = scheduler.spawn("server")
        assert epoll.wait(task)
        assert epoll.wait(task)  # data still unread: still ready

    def test_wait_charges_syscall_time(self):
        engine, scheduler = _setup()
        epoll = EpollInstance(engine=engine, scheduler=scheduler)
        before = engine.clock_ns
        epoll.wait(scheduler.spawn("t"))
        assert engine.clock_ns > before
