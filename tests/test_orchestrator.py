"""Tests for the kernel orchestration policies."""

import pytest

from repro.apps.registry import TOP20_APPS, get_app
from repro.core.orchestrator import Fleet, KernelOrchestrator, KernelPolicy


def _apps(*names):
    return [get_app(name) for name in names]


class TestPolicies:
    def test_per_app_builds_one_kernel_each(self):
        orchestrator = KernelOrchestrator(policy=KernelPolicy.PER_APP)
        fleet = orchestrator.deploy(_apps("redis", "nginx", "memcached"))
        assert fleet.distinct_kernels == 3

    def test_general_shares_one_kernel(self):
        orchestrator = KernelOrchestrator(policy=KernelPolicy.GENERAL)
        fleet = orchestrator.deploy(_apps("redis", "nginx", "memcached"))
        assert fleet.distinct_kernels == 1

    def test_hybrid_splits_by_popularity(self):
        orchestrator = KernelOrchestrator(
            policy=KernelPolicy.HYBRID, hybrid_downloads_threshold=1.0
        )
        fleet = orchestrator.deploy(_apps("redis", "haproxy"))  # 1.2 vs 0.4
        assert fleet.distinct_kernels == 2
        redis_kernel = fleet.guests["redis"].build
        haproxy_kernel = fleet.guests["haproxy"].build
        assert not redis_kernel.variant.general
        assert haproxy_kernel.variant.general

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
        fleet = orchestrator.deploy([redis, clone])
        # Same required options and syscalls -> same config fingerprint,
        # so PER_APP still materializes only one kernel.
        assert orchestrator.build_count == 1
        assert fleet.distinct_kernels == 1
        assert (
            fleet.guests["redis"].build.fingerprint
            == fleet.guests["redis-clone"].build.fingerprint
        )

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
        apps = _apps("redis", "nginx", "postgres", "memcached", "haproxy")
        per_app = KernelOrchestrator(policy=KernelPolicy.PER_APP).deploy(apps)
        general = KernelOrchestrator(policy=KernelPolicy.GENERAL).deploy(apps)
        assert general.total_kernel_mb < per_app.total_kernel_mb

    def test_boot_all(self):
        fleet = KernelOrchestrator(policy=KernelPolicy.GENERAL).deploy(
            _apps("redis", "nginx")
        )
        boots = fleet.boot_all()
        assert set(boots) == {"redis", "nginx"}
        assert all(ms > 0 for ms in boots.values())

    def test_empty_fleet(self):
        fleet = Fleet()
        assert fleet.distinct_kernels == 0
        assert fleet.total_kernel_mb == 0


class TestCoverage:
    def test_general_covers_all_top20(self):
        orchestrator = KernelOrchestrator(policy=KernelPolicy.GENERAL)
        assert orchestrator.coverage_gaps(list(TOP20_APPS)) == []

    def test_per_app_never_has_gaps(self):
        orchestrator = KernelOrchestrator(policy=KernelPolicy.PER_APP)
        assert orchestrator.coverage_gaps(list(TOP20_APPS)) == []

    def test_gap_detected_for_exotic_app(self):
        from repro.apps.app import Application

        exotic = Application(
            name="exotic",
            description="needs fanotify",
            downloads_billions=0.01,
            required_options=frozenset({"FANOTIFY", "EPOLL"}),
            syscalls=frozenset({"read", "fanotify_init", "epoll_wait"}),
            entrypoint=("/usr/bin/exotic",),
        )
        orchestrator = KernelOrchestrator(policy=KernelPolicy.GENERAL)
        gaps = orchestrator.coverage_gaps([exotic])
        assert ("exotic", "FANOTIFY") in gaps
        assert ("exotic", "EPOLL") not in gaps  # EPOLL is in the union
