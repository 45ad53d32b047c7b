"""Tests for the recorded app run behind trace-driven derivation."""

import pytest

from repro.apps.registry import TOP20_APPS, get_app
from repro.core.orchestrator import serving_profile
from repro.core.tracing import trace_app_run, usage_trace_for_app
from repro.kconfig.derive import usage_option_requirements
from repro.syscall.dispatch import SyscallEngine, SyscallNotImplemented
from repro.syscall.usage import UsageTrace


class TestTracer:
    def test_tracing_does_not_swallow_enosys(self):
        engine = SyscallEngine.for_config([])
        engine.usage = UsageTrace(owner="t")
        with pytest.raises(SyscallNotImplemented):
            engine.invoke("futex")
        # The failed call is a miss, not a recorded use.
        assert engine.usage.syscall_counts == {}
        assert engine.usage.misses == {"futex": "FUTEX"}

    def test_facilities_deduplicated(self):
        usage = UsageTrace(owner="t")
        usage.record_facility("socket:inet")
        usage.record_facility("socket:inet")
        assert usage.facilities == {"socket:inet"}


class TestAppTraces:
    def test_trace_includes_startup_prefix(self):
        trace = trace_app_run(get_app("redis"))
        assert trace.owner == "redis"
        assert {"execve", "arch_prctl", "set_tid_address"} <= trace.syscalls

    def test_redis_trace_touches_sockets_and_proc(self):
        trace = trace_app_run(get_app("redis"))
        assert "socket:inet" in trace.facilities
        assert "mount:proc" in trace.facilities

    def test_postgres_trace_forks(self):
        trace = trace_app_run(get_app("postgres"))
        assert {"fork", "wait4"} <= trace.syscalls

    def test_hello_world_trace_is_short_and_local(self):
        trace = trace_app_run(get_app("hello-world"))
        assert trace.facilities == set()
        assert "socket" not in trace.syscalls

    @pytest.mark.parametrize("name", [a.name for a in TOP20_APPS])
    def test_traced_manifest_reproduces_table3_config(self, name):
        """The automated pipeline lands on the hand-derived options."""
        app = get_app(name)
        assert (
            usage_option_requirements(trace_app_run(app))
            == app.required_options
        )

    def test_traces_are_deterministic(self):
        one = trace_app_run(get_app("nginx"))
        two = trace_app_run(get_app("nginx"))
        assert one == two
        assert one.digest() == two.digest()


class TestServingUsage:
    def test_non_serving_app_records_only_the_run(self):
        postgres = get_app("postgres")
        assert serving_profile("postgres") is None
        assert usage_trace_for_app(postgres) == trace_app_run(postgres)

    @pytest.mark.parametrize("name", ["redis", "php"])
    def test_serving_app_adds_exactly_the_burst(self, name):
        """16 rounds of the profile's syscalls, plus ``socket:inet``."""
        app = get_app(name)
        profile = serving_profile(name)
        run = trace_app_run(app)
        usage = usage_trace_for_app(app)
        burst = UsageTrace()
        for syscall in profile.syscalls:
            burst.record(syscall, None, repeats=16)
        expected = dict(run.syscall_counts)
        for syscall, count in burst.syscall_counts.items():
            expected[syscall] = expected.get(syscall, 0) + count
        assert usage.syscall_counts == expected
        assert usage.call_count == run.call_count + 16 * len(profile.syscalls)
        assert usage.facilities == run.facilities | {"socket:inet"}
        assert usage.misses == run.misses == {}
