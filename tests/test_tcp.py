"""Tests for the TCP state machine and conntrack table."""

import pytest

from repro.netstack.path import NetworkPath
from repro.netstack.tcp import (
    ConntrackTable,
    TcpError,
    TcpStack,
    TcpState,
    stack_for_config,
)


def _stack(options=("INET",), **kwargs):
    return stack_for_config(options, **kwargs)


class TestHandshake:
    def test_three_way_handshake(self):
        stack = _stack()
        stack.listen(80)
        connection = stack.on_syn(80, "10.0.0.1", 43210)
        assert connection.state is TcpState.SYN_RECEIVED
        stack.on_ack(connection)
        assert connection.established
        assert stack.connection_count(TcpState.ESTABLISHED) == 1

    def test_syn_to_closed_port_refused(self):
        stack = _stack()
        with pytest.raises(TcpError, match="refused"):
            stack.on_syn(80, "10.0.0.1", 43210)

    def test_duplicate_listen_rejected(self):
        stack = _stack()
        stack.listen(80)
        with pytest.raises(TcpError):
            stack.listen(80)

    def test_ack_requires_syn_rcvd(self):
        stack = _stack()
        stack.listen(80)
        connection = stack.accept_connection(80, "10.0.0.1", 1)
        with pytest.raises(TcpError):
            stack.on_ack(connection)

    def test_backlog_overflow_sheds_syns(self):
        """The OSv 'drops connections' failure mode."""
        stack = _stack(backlog=2)
        stack.listen(80)
        half_open = [stack.on_syn(80, "10.0.0.1", port)
                     for port in range(1, 4)]
        assert half_open[0] is not None and half_open[1] is not None
        assert half_open[2] is None
        assert stack.syns_dropped == 1

    def test_completing_handshake_frees_backlog(self):
        stack = _stack(backlog=1)
        stack.listen(80)
        first = stack.on_syn(80, "10.0.0.1", 1)
        stack.on_ack(first)
        second = stack.on_syn(80, "10.0.0.1", 2)
        assert second is not None


class TestDataAndTeardown:
    def _established(self, stack):
        stack.listen(80)
        return stack.accept_connection(80, "10.0.0.1", 999)

    def test_segments_counted(self):
        stack = _stack()
        connection = self._established(stack)
        stack.receive_segment(connection, 512)
        stack.send_segment(connection, 6144)
        assert connection.segments_in == 1
        assert connection.segments_out == 1

    def test_data_requires_established(self):
        stack = _stack()
        stack.listen(80)
        connection = stack.on_syn(80, "10.0.0.1", 1)
        with pytest.raises(TcpError, match="ESTABLISHED"):
            stack.send_segment(connection)

    def test_active_close_goes_time_wait(self):
        stack = _stack()
        connection = self._established(stack)
        stack.close(connection)
        assert connection.state is TcpState.TIME_WAIT
        assert stack.connection_count(TcpState.TIME_WAIT) == 1
        assert stack.reap_time_wait() == 1
        assert stack.connection_count() == 0

    def test_passive_close_reaps_immediately(self):
        stack = _stack()
        connection = self._established(stack)
        stack.on_fin(connection)
        assert connection.state is TcpState.CLOSED
        assert stack.connection_count() == 0


class TestCosts:
    def test_time_advances_per_packet(self):
        stack = _stack()
        stack.listen(80)
        connection = stack.accept_connection(80, "10.0.0.1", 1)
        after_handshake = stack.clock_ns
        assert after_handshake > 0
        stack.send_segment(connection, 1024)
        assert stack.clock_ns > after_handshake

    def test_hooked_kernel_connection_costs_more(self, microvm):
        lean = _stack()
        heavy = stack_for_config(microvm.enabled)
        for stack in (lean, heavy):
            stack.listen(80)
            stack.accept_connection(80, "10.0.0.1", 1)
        assert heavy.clock_ns > lean.clock_ns


class TestConntrack:
    def test_only_built_with_nf_conntrack(self, microvm):
        assert _stack().conntrack is None
        assert stack_for_config(microvm.enabled).conntrack is not None

    def test_entries_follow_connection_lifecycle(self, microvm):
        stack = stack_for_config(microvm.enabled)
        stack.listen(80)
        connection = stack.accept_connection(80, "10.0.0.1", 1)
        assert connection.key in stack.conntrack
        assert stack.conntrack.lookup(connection.key) is TcpState.ESTABLISHED
        stack.on_fin(connection)
        assert connection.key not in stack.conntrack

    def test_lru_eviction(self):
        table = ConntrackTable(max_entries=2)
        table.track_new((80, "a", 1))
        table.track_new((80, "b", 2))
        table.lookup((80, "a", 1))  # refresh a
        table.track_new((80, "c", 3))  # evicts b
        assert (80, "a", 1) in table
        assert (80, "b", 2) not in table
        assert table.evictions == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ConntrackTable(max_entries=0)

    def test_data_path_does_lookups(self, microvm):
        stack = stack_for_config(microvm.enabled)
        stack.listen(80)
        connection = stack.accept_connection(80, "10.0.0.1", 1)
        before = stack.conntrack.lookups
        stack.receive_segment(connection)
        stack.send_segment(connection)
        assert stack.conntrack.lookups == before + 2


from hypothesis import given, settings, strategies as st


class TestTcpProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(
        ["syn", "ack", "data", "close", "fin", "reap"]),
        min_size=1, max_size=60))
    def test_invariants_under_random_traffic(self, operations):
        """Connection counts and conntrack size stay consistent."""
        stack = stack_for_config(
            ["INET", "NETFILTER", "NF_CONNTRACK"], backlog=4,
            conntrack_entries=8,
        )
        stack.listen(80)
        half_open = []
        established = []
        peer_port = 0
        for operation in operations:
            if operation == "syn":
                peer_port += 1
                connection = stack.on_syn(80, "peer", peer_port)
                if connection is not None:
                    half_open.append(connection)
            elif operation == "ack" and half_open:
                established.append(stack.on_ack(half_open.pop()))
            elif operation == "data" and established:
                stack.receive_segment(established[0], 128)
            elif operation == "close" and established:
                stack.close(established.pop())
            elif operation == "fin" and established:
                stack.on_fin(established.pop())
            elif operation == "reap":
                stack.reap_time_wait()
            # Invariants:
            assert len(stack.conntrack) <= stack.conntrack.max_entries
            assert (stack.connection_count(TcpState.ESTABLISHED)
                    == len(established))
            assert stack.clock_ns >= 0
        # Drain everything; nothing may leak.
        for connection in established:
            stack.close(connection)
        stack.reap_time_wait()
        assert stack.connection_count(TcpState.ESTABLISHED) == 0


class TestTimeWaitVirtualTime:
    """TIME_WAIT ends at ``reap_time_wait()``, never off the clock."""

    def _time_wait_connection(self, stack):
        stack.listen(80)
        connection = stack.on_ack(stack.on_syn(80, "10.0.0.1", 43210))
        stack.close(connection)
        return connection

    def test_explicit_reap_still_works_and_cancels_the_timer(self):
        stack = _stack()
        connection = self._time_wait_connection(stack)
        assert stack.reap_time_wait() == 1
        assert connection.state is TcpState.CLOSED
        assert stack.time_wait_expired == 1
        # Nothing is left to expire later.
        stack.clock.advance(120e9)
        assert stack.time_wait_expired == 1
        assert stack.connection_count() == 0
