"""Tests for the executed event-loop server, including model validation.

The server (``tests/oracles/eventserver.py``) is the reference model
that ``LinuxServerStack``'s analytic request costs are checked against.
"""

import pytest

from repro.apps.registry import get_app
from repro.core.variants import Variant, build_microvm, build_variant
from repro.netstack.tcp import stack_for_config
from repro.workloads.redis import REDIS_GET
from repro.workloads.server import LinuxServerStack
from tests.oracles.eventserver import EventLoopServer


def _server(build, app_ns=4000.0):
    return EventLoopServer(
        engine=build.syscall_engine(),
        tcp=stack_for_config(build.config.enabled),
        app_ns_per_request=app_ns,
    )


@pytest.fixture(scope="module")
def redis_build():
    return build_variant(Variant.LUPINE, get_app("redis"))


class TestServing:
    def test_serves_requests(self, redis_build):
        server = _server(redis_build)
        fd = server.open_connection(peer_port=1000)
        for _ in range(5):
            server.send_request(fd)
        result = server.run_until_drained()
        assert result.requests_served == 5
        assert result.elapsed_ns > 0

    def test_multiple_connections(self, redis_build):
        server = _server(redis_build)
        fds = [server.open_connection(peer_port=1000 + i) for i in range(8)]
        for fd in fds:
            server.send_request(fd)
        result = server.run_until_drained()
        assert result.requests_served == 8

    def test_blocks_when_idle(self, redis_build):
        server = _server(redis_build)
        server.open_connection(peer_port=1000)
        result = server.run_until_drained()
        assert result.requests_served == 0

    def test_backlog_overflow_raises(self, redis_build):
        server = EventLoopServer(
            engine=redis_build.syscall_engine(),
            tcp=stack_for_config(redis_build.config.enabled, backlog=0),
            app_ns_per_request=4000.0,
        )
        with pytest.raises(RuntimeError, match="backlog"):
            server.open_connection(peer_port=1000)


class TestModelValidation:
    def test_executed_and_analytic_models_agree(self, redis_build):
        """The executed server validates the analytic request model."""
        server = _server(redis_build, app_ns=REDIS_GET.app_ns)
        fd = server.open_connection(peer_port=1000)
        requests = 200
        for _ in range(requests):
            server.send_request(fd)
        executed = server.run_until_drained(
            response_bytes=REDIS_GET.payload_bytes
        )
        analytic = LinuxServerStack(
            engine=redis_build.syscall_engine(),
            netpath=redis_build.network_path(),
        ).requests_per_second(REDIS_GET)
        ratio = executed.requests_per_second / analytic
        assert 0.5 <= ratio <= 2.0

    def test_microvm_slower_than_lupine_when_executed(self, redis_build):
        def rps(build):
            server = _server(build, app_ns=REDIS_GET.app_ns)
            fd = server.open_connection(peer_port=1000)
            for _ in range(100):
                server.send_request(fd)
            return server.run_until_drained().requests_per_second

        assert rps(redis_build) > rps(build_microvm())
