"""Tests for the workload layer (server stacks, benchmarks, stress suites)."""

import pytest

from repro.core.variants import Variant
from repro.experiments import fig12_ctxsw, sec5_smp
from repro.simcore import variant_guest
from repro.syscall.cpu import EntryMechanism
from repro.syscall.dispatch import SyscallEngine
from repro.workloads.control_procs import run_with_control_processes, sweep
from repro.workloads.nginx import ApacheBench, NGINX_CONN, NGINX_SESS
from repro.workloads.perf_messaging import engine_ns, run_messaging
from repro.workloads.redis import REDIS_GET, REDIS_SET, RedisBenchmark
from repro.workloads.server import LinuxServerStack, RequestProfile
from repro.workloads.smp_stress import (
    run_futex_stress,
    run_make_j,
    run_sem_posix_stress,
    smp_overhead,
)
from tests.oracles.messaging import run_messaging_interleaved
from tests.oracles.smp_stress import run_stress_stepped

#: The oracle's name for each folded stress.
STRESS_NAMES = {run_futex_stress: "futex", run_sem_posix_stress: "sem_posix"}


def _stack(build):
    return LinuxServerStack(
        engine=build.syscall_engine(), netpath=build.network_path()
    )


@pytest.fixture(scope="module")
def redis_build():
    from repro.apps.registry import get_app
    from repro.core.variants import Variant, build_variant

    return build_variant(Variant.LUPINE, get_app("redis"))


class TestServerStack:
    def test_request_cost_composition(self, redis_build):
        stack = _stack(redis_build)
        profile = RequestProfile(
            name="x", syscalls=("read", "write"), app_ns=1000.0
        )
        expected = (
            stack.engine.latency_ns("read")
            + stack.engine.latency_ns("write")
            + 2 * stack.netpath.packet_ns(256)
            + 1000.0
        )
        assert stack.request_ns(profile) == pytest.approx(expected)

    def test_run_matches_static_estimate(self, redis_build):
        stack = _stack(redis_build)
        measured = stack.run(REDIS_GET, requests=500)
        estimated = stack.requests_per_second(REDIS_GET)
        assert measured == pytest.approx(estimated, rel=0.05)

    def test_gated_syscall_profile_fails_on_wrong_kernel(self, redis_build):
        from repro.syscall.dispatch import SyscallNotImplemented

        # nginx's AIO-using path cannot run on a redis-specialized kernel
        engine = redis_build.syscall_engine()
        stack = LinuxServerStack(
            engine=engine, netpath=redis_build.network_path()
        )
        aio_profile = RequestProfile(
            name="aio", syscalls=("io_submit",), app_ns=100.0
        )
        with pytest.raises(SyscallNotImplemented):
            stack.run(aio_profile, requests=1)


class TestRedisAndNginx:
    def test_lupine_beats_microvm_on_all_four(self, microvm_build):
        from repro.apps.registry import get_app
        from repro.core.variants import Variant, build_variant

        redis = build_variant(Variant.LUPINE, get_app("redis"))
        nginx = build_variant(Variant.LUPINE, get_app("nginx"))
        redis_bench, apache_bench = RedisBenchmark(500), ApacheBench(500)
        assert redis_bench.get_rps(_stack(redis)) > (
            redis_bench.get_rps(_stack(microvm_build))
        )
        assert apache_bench.conn_rps(_stack(nginx)) > (
            apache_bench.conn_rps(_stack(microvm_build))
        )

    def test_set_slower_than_get(self, microvm_build):
        bench = RedisBenchmark(500)
        stack = _stack(microvm_build)
        get = bench.get_rps(stack)
        stack = _stack(microvm_build)
        assert bench.set_rps(stack) < get

    def test_conn_much_slower_than_sess(self, microvm_build):
        bench = ApacheBench(500)
        conn = bench.conn_rps(_stack(microvm_build))
        sess = bench.sess_rps(_stack(microvm_build))
        assert conn < 0.7 * sess

    def test_profiles_shape(self):
        assert NGINX_CONN.handshake_packets == 3
        assert NGINX_SESS.handshake_packets == 0
        assert REDIS_SET.app_ns > REDIS_GET.app_ns


class TestPerfMessaging:
    def test_more_groups_more_total_time(self):
        def total(groups):
            engine = SyscallEngine.for_config(())
            return run_messaging(engine, groups, use_processes=False).total_ms

        assert total(4) > total(1)

    def test_message_count(self):
        engine = SyscallEngine.for_config(())
        result = run_messaging(engine, 2, use_processes=True, loops=3)
        assert result.messages == 3 * 2 * 10 * 10

    def test_processes_within_few_percent_of_threads(self):
        for groups in (1, 4, 16):
            thread = run_messaging(
                SyscallEngine.for_config(()), groups, use_processes=False
            )
            process = run_messaging(
                SyscallEngine.for_config(()), groups, use_processes=True
            )
            ratio = process.ms_per_batch / thread.ms_per_batch
            assert 0.93 <= ratio <= 1.04  # paper: -4% .. +3%

    def test_rejects_zero_groups(self):
        with pytest.raises(ValueError):
            run_messaging(SyscallEngine.for_config(()), 0, False)

    def test_kml_flag_detected(self):
        engine = SyscallEngine.for_config((), entry=EntryMechanism.KML_CALL)
        assert run_messaging(engine, 1, False).kml


class TestMessagingSplit:
    """The split parts and Figure 12's shared sweep against the
    interleaved loop they replaced (``tests/oracles/messaging.py``)."""

    def test_sweep_equals_interleaved_runs(self):
        fresh = {
            "KML": lambda: variant_guest(Variant.LUPINE).engine,
            "NOKML": lambda: variant_guest(Variant.LUPINE_NOKML).engine,
            "KPTI": lambda: SyscallEngine.for_config(
                {"PAGE_TABLE_ISOLATION"}, kpti=True
            ),
        }
        switches = {
            label: tuple(make().cost_model.context_switch_ns(same)
                         for same in (True, False))
            for label, make in fresh.items()
        }
        # The two kernels share scheduler runs; the KPTI kernel's process
        # switch costs more, so its runs must not be shared.
        assert switches["KML"] == switches["NOKML"] != switches["KPTI"]

        groups_swept, loops = (1, 2, 4), 2
        cells = fig12_ctxsw.sweep(
            {label: make() for label, make in fresh.items()}, groups_swept,
            loops=loops,
        )
        assert len(cells) == (len(fresh) * len(groups_swept)
                              * len(fig12_ctxsw.MODES))
        for (label, groups, use_processes), cell in cells.items():
            expected = run_messaging_interleaved(
                fresh[label](), groups, use_processes, loops=loops
            )
            assert cell == expected
            assert run_messaging(fresh[label](), groups, use_processes,
                                 loops=loops) == expected

    def test_engine_counts_must_be_sorted(self):
        with pytest.raises(ValueError):
            engine_ns(SyscallEngine.for_config(()), (200, 100))


class TestSmpStress:
    def test_futex_overhead_within_paper_bound(self):
        ((workers, overhead),) = smp_overhead("futex", (64,))
        assert workers == 64 and 0 < overhead <= 0.08

    def test_sem_overhead_within_paper_bound(self):
        ((workers, overhead),) = smp_overhead("sem_posix", (64,))
        assert workers == 64 and 0 < overhead <= 0.03

    def test_make_overhead_within_paper_bound(self):
        ((workers, overhead),) = smp_overhead("make-j", (16,))
        assert workers == 16 and 0 < overhead <= 0.03

    def test_stress_results_structured(self):
        (result,) = run_futex_stress((4,), smp_enabled=True)
        assert (result.workload, result.workers) == ("futex", 4)
        assert result.elapsed_s > 0

    def test_sem_mostly_uncontended(self):
        (result,) = run_sem_posix_stress((4,), smp_enabled=False)
        assert result.elapsed_s > 0

    @pytest.mark.parametrize("run", (run_futex_stress, run_sem_posix_stress))
    @pytest.mark.parametrize("smp_enabled", (True, False))
    def test_sweep_equals_independent_runs(self, run, smp_enabled):
        """Each count of a sweep reads exactly what its own run ends on."""
        counts = (0, 1, 2, 3, 5)
        swept = run(counts, smp_enabled, ops_per_worker=3)
        assert [result.workers for result in swept] == list(counts)
        assert [result.elapsed_s for result in swept] == [
            run_stress_stepped(STRESS_NAMES[run], count, smp_enabled,
                               ops_per_worker=3)
            for count in counts
        ]

    @pytest.mark.parametrize("run", (run_futex_stress, run_sem_posix_stress))
    @pytest.mark.parametrize("smp_enabled", (True, False))
    def test_paper_sweep_equals_stepped_runs(self, run, smp_enabled):
        """The fold at Section 5's worker counts, 40 rounds per worker."""
        counts = sec5_smp.WORKER_COUNTS
        swept = run(counts, smp_enabled, ops_per_worker=40)
        assert [result.elapsed_s for result in swept] == [
            run_stress_stepped(STRESS_NAMES[run], count, smp_enabled,
                               ops_per_worker=40)
            for count in counts
        ]

    @pytest.mark.parametrize("run", (run_futex_stress, run_sem_posix_stress))
    @pytest.mark.parametrize("smp_enabled", (True, False))
    @pytest.mark.parametrize("rounds", (0, 1, 2, 3))
    def test_fold_equals_stepped_run(self, run, smp_enabled, rounds):
        """One count at a time, so no prefix is read: covers the first
        round (nothing to switch from) and the cache-pressure knee at 4
        workers."""
        for count in (0, 1, 2, 3, 4, 5):
            (result,) = run((count,), smp_enabled, ops_per_worker=rounds)
            assert result.elapsed_s == run_stress_stepped(
                STRESS_NAMES[run], count, smp_enabled, ops_per_worker=rounds
            )

    def test_sweep_rejects_unsorted_counts(self):
        with pytest.raises(ValueError):
            run_futex_stress((4, 1), smp_enabled=True)

    def test_make_j_scales_with_cpus(self):
        one = run_make_j(8, smp_enabled=True, cpus=1)
        four = run_make_j(8, smp_enabled=True, cpus=4)
        assert four.elapsed_s < one.elapsed_s

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            smp_overhead("fishing", 4)


class TestControlProcesses:
    def test_latency_flat_across_populations(self, lupine_build):
        """Figure 11: all points within one standard deviation."""
        results = [
            run_with_control_processes(lupine_build.syscall_engine(), count)
            for count in (1, 32, 1024)
        ]
        null_values = [r.latencies_us["null"] for r in results]
        spread = max(null_values) - min(null_values)
        assert spread <= 0.02 * max(null_values)

    def test_sweep_covers_powers_of_two(self, lupine_build):
        results = sweep(lupine_build.syscall_engine, max_power=4)
        assert [r.control_processes for r in results] == [1, 2, 4, 8, 16]
