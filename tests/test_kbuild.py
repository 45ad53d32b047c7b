"""Tests for the kernel build pipeline."""

import pytest

from repro.kbuild.builder import BuildError, KernelBuilder
from repro.kbuild.image import (
    COMPRESSION_RATIOS,
    CORE_TEXT_KB,
    DEFAULT_COMPRESSION,
)
from repro.kbuild.optimizer import OptLevel
from repro.kconfig.database import base_option_names, build_linux_tree
from repro.kconfig.resolver import Resolver


def _resolve(names, tree=None):
    tree = tree or build_linux_tree()
    return Resolver(tree).resolve_names(names)


class TestToolchain:
    def test_os_is_smaller_but_slower(self):
        assert OptLevel.OS.size_factor < OptLevel.O2.size_factor
        assert OptLevel.OS.speed_factor > OptLevel.O2.speed_factor


class TestBuilder:
    def test_size_is_core_plus_options_times_compression(self, lupine_base):
        image = KernelBuilder().build(lupine_base)
        option_kb = sum(
            lupine_base.tree[name].size_kb for name in lupine_base.enabled
        )
        expected = (CORE_TEXT_KB + option_kb) * DEFAULT_COMPRESSION
        assert image.compressed_kb == pytest.approx(expected)

    def test_adding_options_never_shrinks_image(self, tree, lupine_base):
        bigger = _resolve(base_option_names() + ["INET", "EPOLL"], tree)
        small_image = KernelBuilder().build(lupine_base)
        big_image = KernelBuilder().build(bigger)
        assert big_image.compressed_kb > small_image.compressed_kb

    def test_xz_compresses_harder_than_gzip(self, tree):
        gzip_config = _resolve(base_option_names(), tree)
        xz_names = [n for n in base_option_names() if n != "KERNEL_GZIP"]
        xz_config = _resolve(xz_names + ["KERNEL_XZ"], tree)
        gzip_image = KernelBuilder().build(gzip_config)
        xz_image = KernelBuilder().build(xz_config)
        assert xz_image.compressed_kb < gzip_image.compressed_kb
        # uncompressed payload nearly identical (KERNEL_* opts are ~0-size)
        assert xz_image.uncompressed_kb == pytest.approx(
            gzip_image.uncompressed_kb, rel=0.01
        )

    def test_compression_ratio_table(self):
        assert COMPRESSION_RATIOS["KERNEL_XZ"] < (
            COMPRESSION_RATIOS["KERNEL_GZIP"]
        )

    def test_os_toolchain_from_config(self, tree):
        names = [n for n in base_option_names()
                 if n != "CC_OPTIMIZE_FOR_PERFORMANCE"]
        config = _resolve(names + ["CC_OPTIMIZE_FOR_SIZE"], tree)
        image = KernelBuilder().build(config)
        assert image.opt_level is OptLevel.OS
        default = KernelBuilder().build(_resolve(base_option_names(), tree))
        assert default.opt_level is OptLevel.O2

    @pytest.mark.parametrize("missing,reason", [
        ("PRINTK", "boot progress"),
        ("BINFMT_ELF", "init"),
        ("TTY", "console"),
    ])
    def test_required_options_enforced(self, tree, missing, reason):
        names = [n for n in base_option_names() if n != missing]
        config = _resolve(names, tree)
        with pytest.raises(BuildError, match=reason):
            KernelBuilder().build(config)


class TestImage:
    def test_resident_kernel_smaller_than_uncompressed(self, microvm_build):
        image = microvm_build.image
        assert image.resident_kernel_kb < image.uncompressed_kb

    def test_size_mb_conversion(self, microvm_build):
        image = microvm_build.image
        assert image.size_mb == pytest.approx(image.compressed_kb / 1024.0)

    def test_str_rendering(self, microvm_build):
        assert "microvm" in str(microvm_build.image)

    def test_has_option(self, microvm_build):
        assert microvm_build.image.has_option("SMP")
        assert not microvm_build.image.has_option("KERNEL_MODE_LINUX")


class TestSlimIntegration:
    def test_slim_builder_produces_smaller_rootfs(self):
        from repro.apps.registry import get_app
        from repro.core.lupine import LupineBuilder
        from repro.core.variants import Variant

        redis = get_app("redis")
        fat = LupineBuilder(variant=Variant.LUPINE, slim=False)
        thin = LupineBuilder(variant=Variant.LUPINE, slim=True)
        fat_rootfs = fat.build_for_app(redis).rootfs
        thin_rootfs = thin.build_for_app(redis).rootfs
        assert thin_rootfs.size_kb < fat_rootfs.size_kb
        assert thin_rootfs.exists("/usr/bin/redis-server")

    def test_slim_guest_still_boots(self):
        from repro.apps.registry import get_app
        from repro.core.lupine import LupineBuilder
        from repro.core.variants import Variant

        unikernel = LupineBuilder(
            variant=Variant.LUPINE, slim=True
        ).build_for_app(get_app("nginx"))
        assert unikernel.boot().ran_successfully


class TestModules:
    def test_modules_excluded_from_image(self, tree):
        from repro.kconfig.expr import Tristate
        from repro.kconfig.resolver import Resolver

        # A synthetic driver built as a module must not grow the bzImage.
        filler = next(o.name for o in tree.options_in("drivers")
                      if o.synthetic)
        base = _resolve(base_option_names() + ["MODULES"], tree)
        request = {name: Tristate.YES
                   for name in base_option_names() + ["MODULES"]}
        request[filler] = Tristate.MODULE
        with_module = Resolver(tree).resolve(request)
        builder = KernelBuilder()
        image_base = builder.build(base)
        image_mod = builder.build(with_module)
        assert image_mod.compressed_kb == pytest.approx(
            image_base.compressed_kb
        )
        assert image_mod.modules_kb > 0

    def test_modules_without_modules_support_fail(self, tree):
        from repro.kconfig.expr import Tristate
        from repro.kconfig.resolver import Resolver

        filler = next(o.name for o in tree.options_in("drivers")
                      if o.synthetic)
        request = {name: Tristate.YES for name in base_option_names()}
        request[filler] = Tristate.MODULE
        config = Resolver(tree).resolve(request)
        with pytest.raises(BuildError, match="CONFIG_MODULES"):
            KernelBuilder().build(config)
