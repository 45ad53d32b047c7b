"""An event-loop server running on the full substrate stack.

Where :class:`~repro.workloads.server.LinuxServerStack` computes request
costs analytically, this server *executes* them: a single task blocks in a
real :class:`~tests.oracles.eventloop.EpollInstance`, connections arrive
through the :class:`~repro.netstack.tcp.TcpStack`, requests are read off
:class:`~tests.oracles.eventloop.SimSocket` queues, and every syscall flows
through the engine.  It is the reference model for the analytic one:
both paths must agree on throughput to within a modest factor (they share
the same cost constants but differ in wakeup/bookkeeping detail), which
``tests/test_eventserver.py`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.netstack.tcp import TcpStack
from repro.sched.scheduler import Scheduler
from repro.sched.smp import SmpModel
from repro.syscall.dispatch import SyscallEngine
from tests.oracles.eventloop import EpollInstance, EventMask, SimSocket


@dataclass
class EventServerResult:
    """One run of the event-loop server."""

    requests_served: int
    elapsed_ns: float
    wakeups: int

    @property
    def requests_per_second(self) -> float:
        return self.requests_served / (self.elapsed_ns / 1e9)


class EventLoopServer:
    """A single-threaded epoll server (the redis/nginx/memcached shape)."""

    def __init__(self, engine: SyscallEngine, tcp: TcpStack,
                 app_ns_per_request: float, port: int = 80):
        self.engine = engine
        self.tcp = tcp
        self.app_ns = app_ns_per_request
        self.port = port
        self.scheduler = Scheduler(
            cost_model=engine.cost_model, smp=SmpModel(smp_enabled=False)
        )
        self.task = self.scheduler.spawn("event-server", working_set_kb=512)
        self.epoll = EpollInstance(engine=engine, scheduler=self.scheduler)
        self.tcp.listen(port)
        self._sockets: Dict[int, SimSocket] = {}
        self._connections: Dict[int, object] = {}
        self._next_fd = 8

    # -- client-side drivers --------------------------------------------------

    def open_connection(self, peer_port: int) -> int:
        """A client connects; returns the server-side fd."""
        connection = self.tcp.accept_connection(
            self.port, "10.0.0.9", peer_port
        )
        if connection is None:
            raise RuntimeError("listen backlog overflow")
        self.engine.invoke("accept4")
        fd = self._next_fd
        self._next_fd += 1
        socket = SimSocket(fd=fd)
        self._sockets[fd] = socket
        self._connections[fd] = connection
        self.epoll.add(socket, EventMask.IN)
        return fd

    def send_request(self, fd: int, payload: bytes = b"GET x") -> None:
        """A client request arrives on *fd*."""
        connection = self._connections[fd]
        self.tcp.receive_segment(connection, len(payload))
        self._sockets[fd].deliver(payload)
        self.epoll.notify()

    # -- the server loop ---------------------------------------------------------

    def run_until_drained(self, response_bytes: int = 128) -> EventServerResult:
        """Serve every pending request; returns accounting."""
        start_ns = self._total_ns()
        served = 0
        wakeups = 0
        while True:
            events = self.epoll.wait(self.task)
            if not events:
                break  # would block: all requests drained
            wakeups += 1
            for file, mask in events:
                if not mask & EventMask.IN:
                    continue
                self.engine.invoke("read")
                payload = file.recv()
                if payload is None:
                    continue
                self.engine.cpu_work(self.app_ns)
                self.engine.invoke("write")
                file.send(b"R" * response_bytes)
                file.tx_complete()
                self.tcp.send_segment(
                    self._connections[file.fd], response_bytes
                )
                served += 1
        return EventServerResult(
            requests_served=served,
            elapsed_ns=self._total_ns() - start_ns,
            wakeups=wakeups,
        )

    def _total_ns(self) -> float:
        return self.engine.clock_ns + self.tcp.clock_ns + (
            self.scheduler.clock_ns
        )
