"""Event-loop substrate: epoll, eventfd and timerfd over the scheduler.

The paper's application analysis keeps running into the same trio --
``CONFIG_EPOLL`` for event polling, ``CONFIG_EVENTFD`` for thread wakeups,
``CONFIG_TIMERFD`` for timers (Table 1, Section 4.1).  This module
implements them as working objects: pollable files with readiness state, a
level-triggered epoll instance that really blocks and wakes tasks through
the scheduler, and the syscall-engine charging (so a kernel without the
corresponding option fails with ENOSYS, exactly as the derivation loop
expects).  The executed server in :mod:`tests.oracles.eventserver` runs on
it; no shipped code does.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.sched.scheduler import Scheduler
from repro.sched.task import Task
from repro.syscall.dispatch import SyscallEngine


class EventLoopError(RuntimeError):
    """Invalid epoll usage (duplicate registration, unknown fd, ...)."""


class EventMask(enum.Flag):
    NONE = 0
    IN = enum.auto()
    OUT = enum.auto()
    HUP = enum.auto()


class PollableFile:
    """Base class for files an epoll instance can watch."""

    def __init__(self, fd: int):
        self.fd = fd
        self.closed = False

    def readiness(self) -> EventMask:
        raise NotImplementedError

    def close(self) -> None:
        self.closed = True


class SimSocket(PollableFile):
    """A socket with an rx queue; writable unless its tx window is full."""

    def __init__(self, fd: int, tx_window: int = 8):
        super().__init__(fd)
        self._rx: Deque[bytes] = deque()
        self._tx_in_flight = 0
        self._tx_window = tx_window
        self.peer_closed = False

    def deliver(self, payload: bytes) -> None:
        """Data arrives from the network."""
        if self.closed:
            raise EventLoopError("delivery to a closed socket")
        self._rx.append(payload)

    def recv(self) -> Optional[bytes]:
        return self._rx.popleft() if self._rx else None

    def send(self, payload: bytes) -> bool:
        if self._tx_in_flight >= self._tx_window:
            return False
        self._tx_in_flight += 1
        return True

    def tx_complete(self, count: int = 1) -> None:
        self._tx_in_flight = max(0, self._tx_in_flight - count)

    def hang_up(self) -> None:
        self.peer_closed = True

    def readiness(self) -> EventMask:
        mask = EventMask.NONE
        if self._rx:
            mask |= EventMask.IN
        if self._tx_in_flight < self._tx_window:
            mask |= EventMask.OUT
        if self.peer_closed:
            mask |= EventMask.HUP | EventMask.IN
        return mask


class SimEventFd(PollableFile):
    """eventfd semantics: a 64-bit counter; readable while nonzero."""

    def __init__(self, fd: int, initial: int = 0):
        super().__init__(fd)
        self.counter = initial

    def signal(self, value: int = 1) -> None:
        if value < 1:
            raise EventLoopError("eventfd write must be positive")
        self.counter += value

    def consume(self) -> int:
        value, self.counter = self.counter, 0
        return value

    def readiness(self) -> EventMask:
        return (EventMask.IN if self.counter else EventMask.NONE) | (
            EventMask.OUT
        )


class SimTimerFd(PollableFile):
    """timerfd semantics: fires when the engine clock passes the deadline."""

    def __init__(self, fd: int, engine: SyscallEngine):
        super().__init__(fd)
        self._engine = engine
        self._deadline_ns: Optional[float] = None
        self.expirations = 0

    def arm(self, delay_ns: float) -> None:
        if delay_ns <= 0:
            raise EventLoopError("timerfd delay must be positive")
        self._deadline_ns = self._engine.clock_ns + delay_ns

    def readiness(self) -> EventMask:
        if self._deadline_ns is not None and (
            self._engine.clock_ns >= self._deadline_ns
        ):
            return EventMask.IN
        return EventMask.NONE

    def acknowledge(self) -> None:
        if self.readiness() & EventMask.IN:
            self.expirations += 1
            self._deadline_ns = None


@dataclass
class EpollInstance:
    """A level-triggered epoll instance bound to one kernel and scheduler."""

    engine: SyscallEngine
    scheduler: Scheduler
    _interest: Dict[int, Tuple[PollableFile, EventMask]] = field(
        default_factory=dict
    )
    _waiters: Deque[Task] = field(default_factory=deque)

    def __post_init__(self) -> None:
        # Creating the instance requires CONFIG_EPOLL.
        self.engine.invoke("epoll_create1")

    # -- interest list -------------------------------------------------------

    def add(self, file: PollableFile, mask: EventMask) -> None:
        self.engine.invoke("epoll_ctl")
        if file.fd in self._interest:
            raise EventLoopError(f"fd {file.fd} already registered (EEXIST)")
        self._interest[file.fd] = (file, mask)

    def modify(self, file: PollableFile, mask: EventMask) -> None:
        self.engine.invoke("epoll_ctl")
        if file.fd not in self._interest:
            raise EventLoopError(f"fd {file.fd} not registered (ENOENT)")
        self._interest[file.fd] = (file, mask)

    def remove(self, file: PollableFile) -> None:
        self.engine.invoke("epoll_ctl")
        if self._interest.pop(file.fd, None) is None:
            raise EventLoopError(f"fd {file.fd} not registered (ENOENT)")

    # -- waiting ---------------------------------------------------------------

    def _ready_events(self) -> List[Tuple[PollableFile, EventMask]]:
        ready = []
        for file, mask in self._interest.values():
            if file.closed:
                continue
            fired = file.readiness() & (mask | EventMask.HUP)
            if fired:
                ready.append((file, fired))
        return ready

    def wait(self, task: Task, max_events: int = 64) -> List[
            Tuple[PollableFile, EventMask]]:
        """epoll_wait: return ready events, blocking *task* if none."""
        self.engine.invoke("epoll_wait")
        ready = self._ready_events()
        if ready:
            return ready[:max_events]
        self._waiters.append(task)
        self.scheduler.sleep(task)
        return []

    def notify(self) -> int:
        """Kernel-side: readiness may have changed; wake blocked waiters."""
        if not self._ready_events():
            return 0
        woken = 0
        while self._waiters:
            self.scheduler.wake(self._waiters.popleft())
            woken += 1
        return woken
