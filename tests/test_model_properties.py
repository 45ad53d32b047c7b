"""Cross-model property tests: monotonicity and consistency invariants.

Within the microVM option universe (which has no negative dependencies),
adding options can only grow the resolved set, the image, the boot time,
the static memory, the syscall surface and the packet-path cost.  These
invariants are what make the paper's "remove options -> everything gets
smaller/faster" methodology sound, so we check them directly.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kbuild.builder import KernelBuilder
from repro.kconfig.database import (
    base_option_names,
    build_linux_tree,
    removed_option_names,
)
from repro.kconfig.resolver import Resolver
from repro.netstack.path import NetworkPath
from repro.syscall.table import available_syscalls

_TREE = build_linux_tree()
_BASE = base_option_names()
_REMOVED = removed_option_names()

_extra_subsets = st.sets(st.sampled_from(_REMOVED), max_size=25)

_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _resolve(extra):
    return Resolver(_TREE).resolve_names(_BASE + sorted(extra))


class TestMonotonicity:
    @_settings
    @given(_extra_subsets, _extra_subsets)
    def test_resolution_monotone(self, small, large_extra):
        small_config = _resolve(small)
        large_config = _resolve(small | large_extra)
        assert small_config.enabled <= large_config.enabled

    @_settings
    @given(_extra_subsets)
    def test_requested_options_enabled_or_selected(self, extra):
        config = _resolve(extra)
        # Within the microvm universe every request survives resolution
        # (its dependencies are requested too or pulled in by selects)...
        # unless a dependency lies outside lupine-base and the sample.
        for name in extra:
            if name in config:
                continue
            option = _TREE[name]
            missing = option.dependency_symbols() - config.enabled
            assert missing, f"{name} disabled without missing deps"

    @_settings
    @given(_extra_subsets, _extra_subsets)
    def test_image_size_monotone(self, small, large_extra):
        builder = KernelBuilder()
        small_image = builder.build(_resolve(small))
        large_image = builder.build(_resolve(small | large_extra))
        assert large_image.compressed_kb >= small_image.compressed_kb - 1e-9

    @_settings
    @given(_extra_subsets, _extra_subsets)
    def test_boot_time_monotone(self, small, large_extra):
        from repro.boot.bootsim import BootSimulator

        simulator = BootSimulator(monitor_setup_ms=8.0)
        small_boot = simulator.boot(KernelBuilder().build(_resolve(small)))
        large_boot = simulator.boot(
            KernelBuilder().build(_resolve(small | large_extra))
        )
        assert large_boot.total_ms >= small_boot.total_ms - 1e-9

    @_settings
    @given(_extra_subsets, _extra_subsets)
    def test_syscall_surface_monotone(self, small, large_extra):
        small_set = available_syscalls(_resolve(small).enabled)
        large_set = available_syscalls(_resolve(small | large_extra).enabled)
        assert small_set <= large_set

    @_settings
    @given(_extra_subsets)
    def test_packet_path_never_cheaper_than_lean(self, extra):
        config = _resolve(extra | {"INET"})
        path = NetworkPath.for_options(config.enabled)
        lean = NetworkPath.for_options(["INET"])
        assert path.packet_ns() >= lean.packet_ns() - 1e-9


class TestConsistency:
    @_settings
    @given(_extra_subsets)
    def test_resolution_deterministic(self, extra):
        assert _resolve(extra).enabled == _resolve(extra).enabled

    @_settings
    @given(_extra_subsets)
    def test_footprint_succeeds_above_requirement(self, extra):
        from repro.mm.footprint import FootprintModel

        model = FootprintModel(image=KernelBuilder().build(_resolve(extra)))
        # The guest boots in the first whole MB that holds every page.
        threshold_mb = -(-model.required_pages() // 256)
        assert model.try_boot(threshold_mb)
        assert not model.try_boot(threshold_mb - 1)
