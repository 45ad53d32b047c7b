"""Trace-driven specialization: recording, derivation, determinism.

The Loupe loop (docs/SPECIALIZATION.md): ``UsageTrace`` recorders hook
the syscall engine (including the closed-form ``invoke_batch`` fold),
``repro.kconfig.derive`` turns an observation into a minimal config
warm-started from the ``lupine-base`` fixpoint, and the derived variant
family consumes it.  The properties checked here are the acceptance
criteria of the ``bench-derive`` gate: coverage of recorded usage,
bounded option ratio vs curated, and byte-identical digests on rerun.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.registry import TOP20_APPS, get_app
from repro.core.specialization import (
    app_config,
    app_option_requirements,
    derived_app_config,
    derived_option_requirements,
)
from repro.core.tracing import usage_trace_for_app
from repro.kconfig.configs import lupine_base_config, microvm_config
from repro.kconfig.database import build_linux_tree
from repro.kconfig.derive import (
    config_digest,
    covers_usage,
    derivation_report,
    derive_config,
    usage_option_requirements,
)
from repro.kconfig.minimize import minimize_config
from repro.kconfig.resolver import Resolver
from repro.syscall.dispatch import SyscallEngine, SyscallNotImplemented
from repro.syscall.table import SYSCALLS, option_for_syscall
from repro.syscall.usage import UsageTrace

_TREE = build_linux_tree()
_MICROVM = microvm_config(_TREE)
_BASE = lupine_base_config(_TREE)

#: Syscalls gated behind a config option (Table 1) plus ungated ones --
#: the sampling universe for the random-workload property tests.
_GATED = sorted(n for n in SYSCALLS if option_for_syscall(n) is not None)
_UNGATED = sorted(n for n in SYSCALLS if option_for_syscall(n) is None)

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _provisioned_engine() -> SyscallEngine:
    engine = SyscallEngine.for_config(_MICROVM.enabled)
    engine.usage = UsageTrace(owner="test")
    return engine


class TestUsageRecording:
    def test_invoke_records_counts_and_option(self):
        engine = _provisioned_engine()
        engine.invoke("read")
        engine.invoke("read")
        engine.invoke("epoll_wait")
        usage = engine.usage
        assert usage.syscall_counts["read"] == 2
        assert usage.syscall_counts["epoll_wait"] == 1
        assert "EPOLL" in usage.options
        assert usage.call_count == 3

    def test_miss_records_and_still_raises(self):
        engine = SyscallEngine.for_config(_BASE.enabled)
        engine.usage = UsageTrace(owner="test")
        with pytest.raises(SyscallNotImplemented):
            engine.invoke("epoll_wait")
        assert engine.usage.misses.get("epoll_wait") == "EPOLL"
        assert "EPOLL" in engine.usage.missing_options
        # The failed call never ran: it is a miss, not usage.
        assert "epoll_wait" not in engine.usage.syscalls

    def test_supports_probe_is_not_usage(self):
        engine = _provisioned_engine()
        assert engine.supports("read")
        assert not engine.usage

    def test_batch_fold_matches_stepped_loop(self):
        names = ["read", "write", "epoll_wait", "futex"]
        stepped = _provisioned_engine()
        for _ in range(7):
            for name in names:
                stepped.invoke(name, work_ns=100.0)
        batched = _provisioned_engine()
        batched.invoke_batch(names, 100.0, repeats=7)
        assert batched.usage.as_dict() == stepped.usage.as_dict()

    def test_batch_zero_repeats_records_nothing(self):
        engine = _provisioned_engine()
        engine.invoke_batch(["read", "write"], 100.0, repeats=0)
        assert not engine.usage

    def test_merge_is_order_insensitive(self):
        a = UsageTrace(owner="a")
        a.record("read", None, 3)
        a.record_facility("socket:inet")
        b = UsageTrace(owner="b")
        b.record("read", None, 1)
        b.record("epoll_wait", "EPOLL", 2)
        b.record_miss("timerfd_create", "TIMERFD")
        ab = UsageTrace.merged([a, b], owner="m")
        ba = UsageTrace.merged([b, a], owner="m")
        assert ab.as_dict() == ba.as_dict()
        assert ab.digest() == ba.digest()
        assert ab.syscall_counts["read"] == 4


@st.composite
def _workloads(draw):
    """A random workload mix: gated + ungated syscalls with repeats."""
    gated = draw(st.sets(st.sampled_from(_GATED), max_size=10))
    ungated = draw(st.sets(st.sampled_from(_UNGATED), max_size=10))
    repeats = draw(st.integers(min_value=1, max_value=5))
    return sorted(gated | ungated), repeats


class TestDerivationProperties:
    @_settings
    @given(_workloads())
    def test_derived_config_covers_any_recorded_mix(self, workload):
        names, repeats = workload
        engine = _provisioned_engine()
        for name in names:
            engine.invoke(name)
        if names:
            engine.invoke_batch(names, 100.0, repeats=repeats)
        config = derive_config(engine.usage, _TREE)
        assert covers_usage(config, engine.usage)
        # Every recorded syscall actually dispatches on the derived kernel.
        derived_engine = SyscallEngine.for_config(config.enabled)
        for name in engine.usage.syscalls:
            derived_engine.invoke(name)

    @_settings
    @given(_workloads())
    def test_derivation_is_deterministic(self, workload):
        names, repeats = workload
        digests = []
        for _ in range(2):
            engine = _provisioned_engine()
            for name in names:
                engine.invoke(name)
            if names:
                engine.invoke_batch(names, 100.0, repeats=repeats)
            digests.append(
                (engine.usage.digest(),
                 config_digest(derive_config(engine.usage, _TREE)))
            )
        assert digests[0] == digests[1]

    def test_misses_force_their_option_into_the_derivation(self):
        engine = SyscallEngine.for_config(_BASE.enabled)
        engine.usage = UsageTrace(owner="test")
        with pytest.raises(SyscallNotImplemented):
            engine.invoke("epoll_wait")
        requirements = usage_option_requirements(engine.usage)
        assert "EPOLL" in requirements
        config = derive_config(engine.usage, _TREE)
        assert "EPOLL" in config.enabled


class TestMinimizeFixpoint:
    @pytest.mark.parametrize("app_name", ["redis", "php", "nginx"])
    def test_minimize_resolve_minimize_is_a_fixpoint(self, app_name):
        config = derive_config(
            usage_trace_for_app(get_app(app_name)), _TREE
        )
        request = minimize_config(config)
        resolved = Resolver(_TREE).resolve_names(sorted(request))
        assert resolved.enabled == config.enabled
        assert minimize_config(resolved) == request


class TestDerivedFamily:
    def test_derived_requirements_superset_of_curated_for_top20(self):
        for app in TOP20_APPS:
            curated = app_option_requirements(app)
            derived = derived_option_requirements(app)
            assert curated <= derived, app.name

    def test_php_gains_exactly_epoll_and_inet(self):
        app = get_app("php")
        assert app_option_requirements(app) == frozenset()
        assert derived_option_requirements(app) == frozenset(
            {"EPOLL", "INET"}
        )

    def test_redis_derived_config_content_equals_curated(self):
        app = get_app("redis")
        derived = derived_app_config(app, _TREE)
        curated = app_config(app, _TREE)
        assert derived.enabled == curated.enabled
        assert config_digest(derived) == config_digest(curated)

    def test_derivation_report_meets_bench_acceptance(self):
        from repro.core.bench import MAX_OPTION_RATIO

        for app_name in ("redis", "php"):
            app = get_app(app_name)
            report = derivation_report(usage_trace_for_app(app), _TREE)
            assert report.covers
            curated = len(app_config(app, _TREE).enabled)
            assert report.option_count <= MAX_OPTION_RATIO * curated


class TestServingRecording:
    def _spec(self, record_usage):
        from repro.traffic.arrivals import poisson_trace
        from repro.traffic.policy import named_policy
        from repro.traffic.serve import ServeSpec

        return ServeSpec(
            trace=poisson_trace(requests=200, mean_rps=1000),
            policy=named_policy("scale-to-zero"),
            seed=7,
            record_usage=record_usage,
        )

    def test_recording_never_perturbs_the_served_manifest(self):
        from repro.traffic.serve import run_serving

        plain = run_serving(self._spec(False)).manifest()
        recorded = run_serving(self._spec(True)).manifest()
        assert "usage" not in plain
        assert "usage" in recorded
        # Everything served is identical -- recording is observation,
        # not perturbation -- so pinned digests never move.
        assert {k: v for k, v in recorded.items() if k != "usage"} == plain

    def test_recorded_fleet_usage_derives_serving_options(self):
        from repro.traffic.serve import run_serving

        report = run_serving(self._spec(True))
        assert report.usage_by_app
        for app_name, trace in report.usage_by_app.items():
            assert trace.call_count > 0, app_name
            assert "socket:inet" in trace.facilities
            assert "INET" in usage_option_requirements(trace)
