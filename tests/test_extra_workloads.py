"""Tests for the extension workloads: memcached and pgbench."""

import pytest

from repro.apps.registry import get_app
from repro.core.variants import Variant, build_variant
from repro.syscall.dispatch import SyscallNotImplemented
from repro.syscall.usage import UsageTrace
from repro.workloads.memcached import MemtierBenchmark
from repro.workloads.pgbench import PgBench
from repro.workloads.server import LinuxServerStack


def _stack(build):
    return LinuxServerStack(
        engine=build.syscall_engine(), netpath=build.network_path()
    )


@pytest.fixture(scope="module")
def memcached_build():
    return build_variant(Variant.LUPINE, get_app("memcached"))


@pytest.fixture(scope="module")
def postgres_build():
    return build_variant(Variant.LUPINE, get_app("postgres"))


class TestMemcached:
    def test_runs_on_memcached_kernel(self, memcached_build):
        bench = MemtierBenchmark(500)
        rps = bench.get_rps(_stack(memcached_build))
        assert rps > 100_000  # light requests, lean kernel

    def test_needs_eventfd(self, postgres_build):
        """postgres's kernel lacks EVENTFD -> memcached cannot run there."""
        bench = MemtierBenchmark(10)
        with pytest.raises(SyscallNotImplemented, match="EVENTFD"):
            bench.get_rps(_stack(postgres_build))

    def test_set_slower_than_get(self, memcached_build):
        bench = MemtierBenchmark(500)
        get = bench.get_rps(_stack(memcached_build))
        set_ = bench.set_rps(_stack(memcached_build))
        assert set_ < get

    def test_beats_microvm(self, memcached_build, microvm_build):
        bench = MemtierBenchmark(500)
        lupine = bench.get_rps(_stack(memcached_build))
        baseline = bench.get_rps(_stack(microvm_build))
        assert 1.1 <= lupine / baseline <= 1.35

    def test_set_beats_microvm(self, memcached_build, microvm_build):
        bench = MemtierBenchmark(500)
        assert (bench.set_rps(_stack(memcached_build))
                > bench.set_rps(_stack(microvm_build)))


class TestPgBench:
    def test_runs_on_postgres_kernel(self, postgres_build):
        PgBench.check_kernel(postgres_build.syscall_engine())
        tps = PgBench(transactions=200).tps(_stack(postgres_build))
        assert 1_000 < tps < 100_000  # fdatasync-bound

    def test_rejected_on_redis_kernel(self):
        """redis's kernel has no SYSVIPC -> pgbench fails with ENOSYS."""
        redis_build = build_variant(Variant.LUPINE, get_app("redis"))
        with pytest.raises(SyscallNotImplemented, match="SYSVIPC"):
            PgBench.check_kernel(redis_build.syscall_engine())

    def test_rejected_on_base_kernel(self, lupine_build):
        with pytest.raises(SyscallNotImplemented):
            PgBench.check_kernel(lupine_build.syscall_engine())

    def test_much_slower_than_redis_workloads(self, postgres_build):
        """TPC-B transactions are fdatasync-bound, orders below redis GET."""
        tps = PgBench(transactions=200).tps(_stack(postgres_build))
        assert tps < 50_000

    def test_beats_microvm(self, postgres_build, microvm_build):
        pgbench = PgBench(transactions=200)
        assert (pgbench.tps(_stack(postgres_build))
                > pgbench.tps(_stack(microvm_build)))

    def test_connection_churn_charged(self, postgres_build):
        stack = _stack(postgres_build)
        stack.engine.usage = UsageTrace()
        PgBench(transactions=50, connections=7).tps(stack)
        assert stack.engine.usage.syscall_counts["fork"] == 7
