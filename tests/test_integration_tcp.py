"""Integration: booted guests driving the real TCP stack."""

import pytest

from repro.apps.registry import get_app
from repro.core.lupine import LupineBuilder
from repro.core.variants import Variant, build_microvm
from repro.netstack.tcp import stack_for_config


@pytest.fixture(scope="module")
def nginx_unikernel():
    return LupineBuilder(variant=Variant.LUPINE).build_for_app(
        get_app("nginx")
    )


@pytest.fixture
def nginx_guest(nginx_unikernel):
    """A freshly booted guest: each guest has exactly one TCP stack."""
    return nginx_unikernel.boot()


def _serve_connections(stack, count):
    """Accept, one request/response, close -- the nginx-conn lifecycle.

    Returns the simulated ns the connections took on the stack's clock
    (a booted guest's stack shares the guest clock, which already
    carries boot and init).
    """
    start = stack.clock_ns
    stack.listen(80)
    for index in range(count):
        connection = stack.accept_connection(80, "10.0.0.9", 1000 + index)
        stack.receive_segment(connection, 512)
        stack.send_segment(connection, 6144)
        stack.close(connection)
    stack.reap_time_wait()
    return stack.clock_ns - start


class TestGuestTcp:
    def test_guest_stack_matches_kernel_config(self, nginx_guest):
        stack = nginx_guest.tcp
        assert stack.conntrack is None  # lupine has no NF_CONNTRACK
        assert stack.clock is nginx_guest.clock

    def test_lupine_serves_connections_cheaper_than_microvm(self,
                                                            nginx_guest):
        lupine_ns = _serve_connections(nginx_guest.tcp, 50)
        microvm_stack = stack_for_config(build_microvm().config.enabled)
        microvm_ns = _serve_connections(microvm_stack, 50)
        assert microvm_ns > lupine_ns
        # The same direction (and rough magnitude) as Table 4's nginx-conn.
        assert 1.1 <= microvm_ns / lupine_ns <= 2.0

    def test_microvm_conntrack_tracks_every_connection(self):
        stack = stack_for_config(build_microvm().config.enabled)
        _serve_connections(stack, 25)
        assert stack.conntrack.insertions == 25
        assert len(stack.conntrack) == 0  # all closed and reaped

    def test_no_leaked_connections(self, nginx_guest):
        stack = nginx_guest.tcp
        assert _serve_connections(stack, 10) > 0
        assert stack.connection_count() == 0
