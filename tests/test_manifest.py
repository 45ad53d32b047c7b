"""Tests for manifest generation and option derivation."""

import pytest

from repro.apps.registry import TOP20_APPS, get_app
from repro.core.manifest import (
    ApplicationManifest,
    derive_options,
    generate_manifest,
)
from repro.core.optionset import implied_options
from repro.syscall.usage import UsageTrace


class TestGeneration:
    def test_manifest_mirrors_app(self):
        redis = get_app("redis")
        manifest = generate_manifest(redis)
        assert manifest.app_name == "redis"
        assert manifest.syscalls == redis.syscalls
        assert manifest.needs_network

    def test_derivation_matches_hand_derived_config_for_all_apps(self):
        """The paper's error-message-driven derivation, automated: must
        produce exactly Table 3's per-app option sets."""
        for app in TOP20_APPS:
            derived = derive_options(generate_manifest(app))
            assert derived == app.required_options, app.name


class TestValidation:
    def test_unknown_syscall_rejected(self):
        with pytest.raises(ValueError, match="unknown syscalls"):
            ApplicationManifest("x", syscalls=frozenset({"frobnicate"}))

    def test_unknown_facility_rejected(self):
        with pytest.raises(ValueError, match="unknown facilities"):
            ApplicationManifest(
                "x", syscalls=frozenset(), facilities=frozenset({"warp:9"})
            )


class TestTraceDriven:
    def test_trace_deduplicates(self):
        trace = UsageTrace(owner="custom")
        for name in ("read", "read", "epoll_wait"):
            trace.record(name, None)
        trace.record_facility("socket:inet")
        assert trace.syscalls == {"read", "epoll_wait"}
        assert implied_options(trace.syscalls, trace.facilities) == {
            "EPOLL", "INET"
        }

    def test_trace_derivation(self):
        options = implied_options(
            ["read", "write", "futex", "epoll_wait", "timerfd_create"],
            ["socket:inet", "mount:proc"],
        )
        assert options == {"FUTEX", "EPOLL", "TIMERFD", "INET", "PROC_FS"}

    def test_ungated_syscalls_imply_nothing(self):
        assert implied_options(["read", "write", "getpid"]) == frozenset()
