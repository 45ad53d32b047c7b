"""A small TCP state machine and connection-tracking table.

It models the mechanism behind two of the paper's observations:

- **nginx-conn vs nginx-sess** (Table 4): connection-based workloads pay
  the full SYN/SYN-ACK/ACK handshake and teardown per request, and on a
  microVM-configured kernel every handshake also creates a conntrack entry;
- **OSv "drops connections"**: a stack that cannot keep up with connection
  churn sheds SYNs -- modelled here as listen-backlog overflow.

The state machine implements the RFC 793 transitions (LISTEN -> SYN_RCVD
-> ESTABLISHED -> FIN_WAIT/CLOSE), charges per-packet costs through a
:class:`~repro.netstack.path.NetworkPath`, and keeps real bookkeeping
(ports, backlogs, a capacity-bounded conntrack table with LRU eviction)
so tests can probe behaviour, not just cost.  Every guest builds one
(:func:`stack_for_config`), but only tests drive it past construction:
Table 4's handshake cost is priced from the workload's
:class:`~repro.workloads.server.RequestProfile` through the guest's
:class:`~repro.netstack.path.NetworkPath`.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.netstack.path import NetworkPath
from repro.simcore.clock import VirtualClock


class TcpError(RuntimeError):
    """Protocol-violation errors (connecting to a closed port, etc.)."""


class TcpState(enum.Enum):
    LISTEN = "LISTEN"
    SYN_RECEIVED = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"
    CLOSED = "CLOSED"


#: Four-tuple identifying a connection (local port, peer host, peer port).
FlowKey = Tuple[int, str, int]


@dataclass
class Connection:
    """One TCP connection endpoint on the simulated host."""

    key: FlowKey
    state: TcpState
    segments_in: int = 0
    segments_out: int = 0

    @property
    def established(self) -> bool:
        return self.state is TcpState.ESTABLISHED


class ConntrackTable:
    """A netfilter-style connection tracking table with LRU eviction.

    Only instantiated when the kernel config includes ``NF_CONNTRACK`` --
    a Lupine kernel has no table at all, which is exactly why its
    connection path is cheaper.
    """

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError("conntrack table needs at least one slot")
        self.max_entries = max_entries
        self._entries: "OrderedDict[FlowKey, TcpState]" = OrderedDict()
        self.insertions = 0
        self.evictions = 0
        self.lookups = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._entries

    def track_new(self, key: FlowKey) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        if len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = TcpState.SYN_RECEIVED
        self.insertions += 1

    def update(self, key: FlowKey, state: TcpState) -> None:
        if key in self._entries:
            self._entries[key] = state
            self._entries.move_to_end(key)

    def lookup(self, key: FlowKey) -> Optional[TcpState]:
        self.lookups += 1
        state = self._entries.get(key)
        if state is not None:
            self._entries.move_to_end(key)
        return state

    def drop(self, key: FlowKey) -> None:
        self._entries.pop(key, None)


@dataclass
class TcpStack:
    """The host's TCP endpoint: listeners, connections, cost accounting."""

    path: NetworkPath
    conntrack: Optional[ConntrackTable] = None
    backlog: int = 128
    clock: VirtualClock = field(default_factory=VirtualClock)
    _listeners: Dict[int, int] = field(default_factory=dict)  # port->pending
    _connections: Dict[FlowKey, Connection] = field(default_factory=dict)
    syns_dropped: int = 0
    time_wait_expired: int = 0

    @property
    def clock_ns(self) -> float:
        """Simulated nanoseconds accumulated on this stack's clock."""
        return self.clock.now_ns

    # -- server side --------------------------------------------------------

    def listen(self, port: int, backlog: Optional[int] = None) -> None:
        if port in self._listeners:
            raise TcpError(f"port {port} already listening")
        self._listeners[port] = 0
        if backlog is not None:
            self.backlog = backlog

    def _charge_packet(self, connection_setup: bool) -> None:
        if connection_setup:
            self.clock.advance(self.path.connection_packet_ns())
        else:
            self.clock.advance(self.path.packet_ns())

    def on_syn(self, port: int, peer: str, peer_port: int) -> Optional[Connection]:
        """An inbound SYN: reply SYN-ACK or drop/RST.

        Returns the half-open connection, or None if the SYN was shed
        (backlog full -- the OSv failure mode under ab).
        """
        self._charge_packet(connection_setup=True)
        if port not in self._listeners:
            # RST costs an outbound packet.
            self._charge_packet(connection_setup=False)
            raise TcpError(f"connection refused: port {port} not listening")
        if self._listeners[port] >= self.backlog:
            self.syns_dropped += 1
            return None
        key: FlowKey = (port, peer, peer_port)
        connection = Connection(key=key, state=TcpState.SYN_RECEIVED)
        self._connections[key] = connection
        self._listeners[port] += 1
        if self.conntrack is not None:
            self.conntrack.track_new(key)
        self._charge_packet(connection_setup=True)  # SYN-ACK out
        return connection

    def on_ack(self, connection: Connection) -> Connection:
        """The handshake's final ACK: connection becomes ESTABLISHED."""
        if connection.state is not TcpState.SYN_RECEIVED:
            raise TcpError(f"unexpected ACK in {connection.state.value}")
        self._charge_packet(connection_setup=True)
        connection.state = TcpState.ESTABLISHED
        self._listeners[connection.key[0]] -= 1
        if self.conntrack is not None:
            self.conntrack.update(connection.key, TcpState.ESTABLISHED)
        return connection

    def accept_connection(self, port: int, peer: str,
                          peer_port: int) -> Optional[Connection]:
        """Convenience: full three-way handshake."""
        connection = self.on_syn(port, peer, peer_port)
        if connection is None:
            return None
        return self.on_ack(connection)

    # -- data transfer ---------------------------------------------------------

    def receive_segment(self, connection: Connection,
                        payload_bytes: int = 0) -> None:
        self._require_established(connection)
        if self.conntrack is not None:
            self.conntrack.lookup(connection.key)
        self.clock.advance(self.path.packet_ns(payload_bytes))
        connection.segments_in += 1

    def send_segment(self, connection: Connection,
                     payload_bytes: int = 0) -> None:
        self._require_established(connection)
        if self.conntrack is not None:
            self.conntrack.lookup(connection.key)
        self.clock.advance(self.path.packet_ns(payload_bytes))
        connection.segments_out += 1

    # -- teardown -----------------------------------------------------------------

    def close(self, connection: Connection) -> None:
        """Active close: FIN -> (peer FIN-ACK) -> TIME_WAIT.

        The connection lingers in TIME_WAIT until :meth:`reap_time_wait`.
        """
        self._require_established(connection)
        connection.state = TcpState.FIN_WAIT_1
        self._charge_packet(connection_setup=False)  # FIN out
        self._charge_packet(connection_setup=False)  # FIN-ACK in
        connection.state = TcpState.TIME_WAIT
        if self.conntrack is not None:
            self.conntrack.update(connection.key, TcpState.TIME_WAIT)

    def on_fin(self, connection: Connection) -> None:
        """Passive close: peer's FIN -> CLOSE_WAIT -> LAST_ACK -> CLOSED."""
        self._require_established(connection)
        connection.state = TcpState.CLOSE_WAIT
        self._charge_packet(connection_setup=False)
        connection.state = TcpState.LAST_ACK
        self._charge_packet(connection_setup=False)
        connection.state = TcpState.CLOSED
        self._reap(connection)

    def reap_time_wait(self) -> int:
        """Expire every TIME_WAIT connection: CLOSED, entry reaped.

        Returns how many expired; :attr:`time_wait_expired` counts them.
        """
        reaped = 0
        for connection in list(self._connections.values()):
            if connection.state is TcpState.TIME_WAIT:
                connection.state = TcpState.CLOSED
                self._reap(connection)
                reaped += 1
        self.time_wait_expired += reaped
        return reaped

    # -- queries ---------------------------------------------------------------------

    def connection_count(self, state: Optional[TcpState] = None) -> int:
        if state is None:
            return len(self._connections)
        return sum(
            1 for c in self._connections.values() if c.state is state
        )

    # -- internals ---------------------------------------------------------------------

    def _require_established(self, connection: Connection) -> None:
        if connection.state is not TcpState.ESTABLISHED:
            raise TcpError(
                f"operation requires ESTABLISHED, got "
                f"{connection.state.value}"
            )

    def _reap(self, connection: Connection) -> None:
        self._connections.pop(connection.key, None)
        if self.conntrack is not None:
            self.conntrack.drop(connection.key)


def stack_for_config(enabled_options, backlog: int = 128,
                     conntrack_entries: int = 1024,
                     clock: Optional[VirtualClock] = None) -> TcpStack:
    """Build a TcpStack matching a kernel configuration.

    *clock* binds the stack to an existing timeline (a guest's clock);
    omitted, the stack keeps a private clock, as standalone tests do.
    """
    path = NetworkPath.for_options(enabled_options)
    conntrack = None
    if "NF_CONNTRACK" in set(enabled_options):
        conntrack = ConntrackTable(max_entries=conntrack_entries)
    return TcpStack(
        path=path, conntrack=conntrack, backlog=backlog,
        clock=clock if clock is not None else VirtualClock(),
    )
