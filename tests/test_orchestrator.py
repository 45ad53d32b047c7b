"""Tests for the kernel orchestration policies."""

from repro.apps.registry import TOP20_APPS, get_app
from repro.core.orchestrator import KernelOrchestrator, KernelPolicy
from repro.core.variants import Variant


def _kernels(orchestrator, *names):
    """The distinct kernels the policy gives *names*: fingerprint -> build."""
    builds = [orchestrator.unikernel_for(get_app(name)).build
              for name in names]
    return {build.fingerprint: build for build in builds}


def _distinct_kernel_mb(policy, names):
    kernels = _kernels(KernelOrchestrator(policy=policy), *names)
    return sum(build.image.size_mb for build in kernels.values())


class TestPolicies:
    def test_per_app_builds_one_kernel_each(self):
        orchestrator = KernelOrchestrator(policy=KernelPolicy.PER_APP)
        kernels = _kernels(orchestrator, "redis", "nginx", "memcached")
        assert len(kernels) == orchestrator.build_count == 3
        assert orchestrator.variant_for(get_app("redis")) is Variant.LUPINE

    def test_general_shares_one_kernel(self):
        orchestrator = KernelOrchestrator(policy=KernelPolicy.GENERAL)
        kernels = _kernels(orchestrator, "redis", "nginx", "memcached")
        assert len(kernels) == orchestrator.build_count == 1
        assert (orchestrator.variant_for(get_app("redis"))
                is Variant.LUPINE_GENERAL)

    def test_cache_prevents_rebuilds(self):
        orchestrator = KernelOrchestrator(policy=KernelPolicy.PER_APP)
        orchestrator.unikernel_for(get_app("redis"))
        orchestrator.unikernel_for(get_app("redis"))
        assert orchestrator.build_count == 1

    def test_identical_configs_share_a_kernel(self):
        import dataclasses

        redis = get_app("redis")
        clone = dataclasses.replace(redis, name="redis-clone")
        orchestrator = KernelOrchestrator(policy=KernelPolicy.PER_APP)
        original = orchestrator.unikernel_for(redis)
        cloned = orchestrator.unikernel_for(clone)
        # Same required options and syscalls -> same config fingerprint,
        # so PER_APP still materializes only one kernel.
        assert orchestrator.build_count == 1
        assert original.build.fingerprint == cloned.build.fingerprint
        assert original.rootfs is not cloned.rootfs  # the rootfs is per-app

    def test_cache_key_is_config_fingerprint(self):
        from repro.core.variants import variant_fingerprint

        orchestrator = KernelOrchestrator(policy=KernelPolicy.PER_APP)
        redis = get_app("redis")
        expected = variant_fingerprint(orchestrator.variant_for(redis), redis)
        assert orchestrator._cache_key(redis) == expected

    def test_nokml_flag_respected(self):
        orchestrator = KernelOrchestrator(
            policy=KernelPolicy.PER_APP, kml=False
        )
        unikernel = orchestrator.unikernel_for(get_app("redis"))
        assert not unikernel.build.kml
        assert "PARAVIRT" in unikernel.build.config


class TestFleet:
    def test_general_fleet_smaller_total_image_budget(self):
        apps = ("redis", "nginx", "postgres", "memcached", "haproxy")
        assert (_distinct_kernel_mb(KernelPolicy.GENERAL, apps)
                < _distinct_kernel_mb(KernelPolicy.PER_APP, apps))

    def test_boot_all(self):
        orchestrator = KernelOrchestrator(policy=KernelPolicy.GENERAL)
        guests = {
            name: orchestrator.unikernel_for(get_app(name)).boot()
            for name in ("redis", "nginx")
        }
        for guest in guests.values():
            assert guest.ran_successfully
            assert guest.boot_report.total_ms > 0
        assert guests["redis"].kernel is guests["nginx"].kernel


class TestCoverage:
    def test_general_covers_all_top20(self):
        """The shared kernel enables every top-20 app's options."""
        orchestrator = KernelOrchestrator(policy=KernelPolicy.GENERAL)
        config = orchestrator.unikernel_for(get_app("redis")).build.config
        for app in TOP20_APPS:
            assert app.required_options <= config.enabled, app.name

    def test_per_app_never_has_gaps(self):
        orchestrator = KernelOrchestrator(policy=KernelPolicy.PER_APP)
        for app in TOP20_APPS:
            config = orchestrator.unikernel_for(app).build.config
            assert app.required_options <= config.enabled, app.name
