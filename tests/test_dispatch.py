"""Tests for the syscall dispatch engine."""

import pytest

from repro.syscall.cpu import EntryMechanism
from repro.syscall.dispatch import SyscallEngine, SyscallNotImplemented
from repro.syscall.usage import UsageTrace


def _engine(options=(), **kwargs):
    return SyscallEngine.for_config(options, **kwargs)


class TestGating:
    def test_core_syscall_always_available(self):
        assert _engine().supports("read")

    def test_gated_syscall_needs_option(self):
        assert not _engine().supports("epoll_wait")
        assert _engine(["EPOLL"]).supports("epoll_wait")

    def test_enosys_names_missing_option(self):
        with pytest.raises(SyscallNotImplemented) as excinfo:
            _engine().invoke("futex")
        assert excinfo.value.missing_option == "FUTEX"
        assert "CONFIG_FUTEX" in str(excinfo.value)
        assert excinfo.value.errno_name == "ENOSYS"

    def test_enosys_error_message_matches_paper_style(self):
        """Section 4.1: 'epoll_create1 failed: function not implemented'."""
        with pytest.raises(SyscallNotImplemented, match="not implemented"):
            _engine().invoke("epoll_create1")

    def test_unknown_syscall(self):
        with pytest.raises(SyscallNotImplemented) as excinfo:
            _engine().invoke("not_a_syscall")
        assert excinfo.value.missing_option is None


class TestAccounting:
    def test_invoke_advances_clock(self):
        engine = _engine()
        engine.invoke("getppid")
        assert engine.clock_ns > 0
        assert engine.call_count == 1

    def test_per_syscall_counts(self):
        engine = _engine()
        engine.usage = UsageTrace()
        engine.invoke("read")
        engine.invoke("read")
        engine.invoke("write")
        assert engine.usage.syscall_counts == {"read": 2, "write": 1}

    def test_latency_ns_does_not_mutate(self):
        engine = _engine()
        latency = engine.latency_ns("getppid")
        assert latency > 0
        assert engine.clock_ns == 0
        assert engine.call_count == 0

    def test_work_ns_added(self):
        engine = _engine()
        base = engine.latency_ns("read")
        assert engine.latency_ns("read", work_ns=500) == pytest.approx(
            base + 500
        )

    def test_cpu_work(self):
        engine = _engine()
        engine.cpu_work(1000)
        assert engine.clock_ns == 1000
        with pytest.raises(ValueError):
            engine.cpu_work(-1)

    def test_reset_clock(self):
        engine = _engine()
        engine.usage = UsageTrace()
        engine.invoke("read")
        engine.reset_clock()
        assert engine.clock_ns == 0
        assert engine.call_count == 0
        # The recorder belongs to its caller: a clock rewind keeps it.
        assert engine.usage.syscall_counts == {"read": 1}


class TestDeterminism:
    def test_identical_runs_identical_clocks(self):
        one, two = _engine(), _engine()
        for _ in range(50):
            one.invoke("read")
            two.invoke("read")
        assert one.clock_ns == two.clock_ns

    def test_jitter_is_bounded(self):
        engine = _engine()
        nominal = engine.latency_ns("getppid")
        samples = [engine.invoke("getppid").latency_ns for _ in range(100)]
        for sample in samples:
            assert abs(sample - nominal) <= 0.02 * nominal + 1.0
        assert len(set(samples)) > 1  # but it does vary


class TestEntryMechanisms:
    def test_kml_engine_is_faster(self):
        syscall = _engine(entry=EntryMechanism.SYSCALL)
        kml = _engine(entry=EntryMechanism.KML_CALL)
        assert kml.latency_ns("getppid") < syscall.latency_ns("getppid")

    def test_kml_runs_identical_kernel_paths(self):
        """Section 3.2: no kernel bypass; only the entry differs."""
        syscall = _engine(entry=EntryMechanism.SYSCALL)
        kml = _engine(entry=EntryMechanism.KML_CALL)
        delta_read = syscall.latency_ns("read") - kml.latency_ns("read")
        delta_null = syscall.latency_ns("getppid") - kml.latency_ns("getppid")
        assert delta_read == pytest.approx(delta_null)
