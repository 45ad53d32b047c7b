"""Tests for the boot simulator."""

import dataclasses

import pytest

from repro.boot.bootsim import BootSimulator
from repro.boot.phases import (
    DECOMPRESS_KB_PER_MS,
    EARLY_SETUP_MS,
    INIT_EXEC_MS,
    INITCALL_ASYNC_FACTOR,
    INITCALL_DISPATCH_US,
    LOAD_KB_PER_MS,
    PARAVIRT_CLOCK_CALIBRATION_MS,
    TSC_CALIBRATION_MS,
    BootPhase,
    RootfsKind,
)
from repro.kconfig.model import KconfigTree


@pytest.fixture
def simulator():
    return BootSimulator(monitor_setup_ms=8.0)


class TestPhases:
    def test_all_phases_present(self, simulator, nokml_build):
        report = simulator.boot(nokml_build.image)
        for phase in BootPhase:
            assert phase in report.phases_ms

    def test_total_is_sum(self, simulator, nokml_build):
        report = simulator.boot(nokml_build.image)
        assert report.total_ms == pytest.approx(
            sum(report.phases_ms.values())
        )

    def test_breakdown_renders(self, simulator, nokml_build):
        text = simulator.boot(nokml_build.image).breakdown()
        assert "clock-calibration" in text
        assert "ms" in text


class TestParavirt:
    def test_paravirt_dominates_calibration(self, simulator, nokml_build,
                                            lupine_build):
        with_pv = simulator.boot(nokml_build.image)
        without_pv = simulator.boot(lupine_build.image)
        assert with_pv.phase_ms(BootPhase.CLOCK_CALIBRATION) < 3
        assert without_pv.phase_ms(BootPhase.CLOCK_CALIBRATION) > 45

    def test_kml_boots_slower_than_nokml(self, simulator, nokml_build,
                                         lupine_build):
        """Section 4.3: without PARAVIRT boot jumps to ~71 ms."""
        kml = simulator.boot(lupine_build.image).total_ms
        nokml = simulator.boot(nokml_build.image).total_ms
        assert kml > 2 * nokml


class TestConfigurationEffects:
    def test_microvm_boots_slower_than_lupine(self, simulator, microvm_build,
                                              nokml_build):
        microvm = simulator.boot(microvm_build.image).total_ms
        lupine = simulator.boot(nokml_build.image).total_ms
        assert lupine < 0.5 * microvm  # paper: 59% faster

    def test_paper_absolute_ranges(self, simulator, microvm_build,
                                   nokml_build):
        assert 50 <= simulator.boot(microvm_build.image).total_ms <= 62
        assert 19 <= simulator.boot(nokml_build.image).total_ms <= 26

    def test_general_costs_about_2ms_extra(self, simulator, nokml_build,
                                           general_build):
        # lupine-general-nokml needs its PARAVIRT sibling for a fair diff
        from repro.core.variants import Variant, build_variant

        general_nokml = build_variant(Variant.LUPINE_GENERAL_NOKML)
        delta = (
            simulator.boot(general_nokml.image).total_ms
            - simulator.boot(nokml_build.image).total_ms
        )
        assert 0.5 <= delta <= 3.5  # paper: ~2 ms

    def test_initcalls_scale_with_options(self, simulator, microvm_build,
                                          nokml_build):
        big = simulator.boot(microvm_build.image)
        small = simulator.boot(nokml_build.image)
        assert big.phase_ms(BootPhase.INITCALLS) > (
            3 * small.phase_ms(BootPhase.INITCALLS)
        )


class TestRootfsKinds:
    def test_zfs_is_an_order_of_magnitude_worse(self):
        """Section 4.3: OSv's zfs vs read-only filesystem, 10x."""
        assert RootfsKind.ZFS.mount_ms / RootfsKind.ROFS.mount_ms > 10

    def test_rootfs_choice_changes_total(self, simulator, nokml_build):
        ext2 = simulator.boot(nokml_build.image, rootfs=RootfsKind.EXT2)
        zfs = simulator.boot(nokml_build.image, rootfs=RootfsKind.ZFS)
        assert zfs.total_ms - ext2.total_ms == pytest.approx(
            RootfsKind.ZFS.mount_ms - RootfsKind.EXT2.mount_ms
        )

    def test_system_label(self, simulator, nokml_build):
        report = simulator.boot(nokml_build.image, system="mylabel")
        assert report.system == "mylabel"


def _expected_phases(image, rootfs=RootfsKind.EXT2, monitor_setup_ms=8.0):
    """Every phase of one boot, recomputed from scratch (no memo)."""
    config = image.config
    initcalls_us = sum(
        config.tree[name].boot_cost_us for name in sorted(config.enabled)
    )
    initcalls_us *= INITCALL_ASYNC_FACTOR
    initcalls_us += INITCALL_DISPATCH_US * len(config.enabled)
    initcalls_us *= image.opt_level.speed_factor
    return {
        BootPhase.MONITOR_SETUP: monitor_setup_ms,
        BootPhase.KERNEL_LOAD: image.compressed_kb / LOAD_KB_PER_MS,
        BootPhase.DECOMPRESS: image.uncompressed_kb / DECOMPRESS_KB_PER_MS,
        BootPhase.EARLY_SETUP: EARLY_SETUP_MS,
        BootPhase.CLOCK_CALIBRATION: (
            PARAVIRT_CLOCK_CALIBRATION_MS if "PARAVIRT" in config
            else TSC_CALIBRATION_MS
        ),
        BootPhase.INITCALLS: initcalls_us / 1000.0,
        BootPhase.ROOTFS_MOUNT: rootfs.mount_ms,
        BootPhase.INIT_EXEC: INIT_EXEC_MS,
    }


class TestPerImageBootCosts:
    """The initcall phase is computed once per image and kept on it; every
    boot must still produce exactly the unmemoized floats."""

    @pytest.mark.parametrize("build", ["microvm_build", "nokml_build",
                                       "lupine_build", "general_build"])
    def test_repeated_boots_equal_the_formula(self, request, simulator,
                                              monkeypatch, build):
        # A fresh image object: no memo from earlier tests.
        image = dataclasses.replace(request.getfixturevalue(build).image)
        folds = []
        fold = BootSimulator._fold_initcalls_ms
        monkeypatch.setattr(BootSimulator, "_fold_initcalls_ms",
                            staticmethod(lambda i: folds.append(i) or fold(i)))
        for rootfs in (RootfsKind.EXT2, RootfsKind.ZFS, RootfsKind.EXT2):
            report = simulator.boot(image, rootfs=rootfs)
            assert report.phases_ms == _expected_phases(image, rootfs)
        assert folds == [image]

    def test_images_differing_in_one_option_cost(self, simulator,
                                                 nokml_build):
        image = nokml_build.image
        config = image.config
        name = next(n for n in sorted(config.enabled)
                    if config.tree[n].boot_cost_us > 0.0)
        tree = KconfigTree(kernel_version=config.tree.kernel_version)
        tree.add_all(
            dataclasses.replace(option,
                                boot_cost_us=option.boot_cost_us + 250.0)
            if option.name == name else option
            for option in config.tree
        )
        cheap = dataclasses.replace(image)
        dear = dataclasses.replace(
            image, config=dataclasses.replace(config, tree=tree)
        )
        # Interleaved: neither image may see the other's memo.
        for target in (cheap, dear, cheap, dear):
            report = simulator.boot(target)
            assert report.phases_ms == _expected_phases(target)
        assert (simulator.boot(dear).phase_ms(BootPhase.INITCALLS)
                > simulator.boot(cheap).phase_ms(BootPhase.INITCALLS))

    def test_memo_leaves_image_equality_alone(self, simulator,
                                                nokml_build):
        image = dataclasses.replace(nokml_build.image)
        simulator.boot(image)
        assert image == nokml_build.image
