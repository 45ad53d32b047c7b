"""Tests for the Lupine variant builder (Table 2 / Section 4)."""

import pytest

from repro.apps.registry import get_app
from repro.core.variants import (
    TINY_DISABLED,
    TINY_ENABLED,
    Variant,
    VariantBuild,
    build_microvm,
    build_variant,
)
from repro.kbuild.builder import BuildError, KernelBuilder
from repro.kconfig.expr import Tristate
from repro.kconfig.resolver import Resolver
from repro.syscall.cpu import EntryMechanism

#: Every variant, bare and specialized (derived variants need an app).
VARIANT_TARGETS = [
    (variant, app)
    for variant in Variant
    for app in (None, "redis")
    if app is not None or not variant.derived
]


class TestVariantFlags:
    def test_kml_variants(self):
        assert Variant.LUPINE.kml
        assert Variant.LUPINE_GENERAL.kml
        assert not Variant.LUPINE_NOKML.kml

    def test_tiny_variants(self):
        assert Variant.LUPINE_TINY.tiny
        assert Variant.LUPINE_NOKML_TINY.tiny
        assert not Variant.LUPINE.tiny

    def test_nine_modified_options_for_tiny(self):
        """Footnote 8: '9 modified configuration options'."""
        assert len(TINY_DISABLED) + len(TINY_ENABLED) == 9


class TestKmlParavirtConflict:
    def test_kml_build_drops_paravirt(self, lupine_build):
        assert lupine_build.kml
        assert "PARAVIRT" not in lupine_build.config
        assert "KERNEL_MODE_LINUX" in lupine_build.config

    def test_nokml_build_keeps_paravirt(self, nokml_build):
        assert not nokml_build.kml
        assert "PARAVIRT" in nokml_build.config
        assert "KERNEL_MODE_LINUX" not in nokml_build.config

    def test_builder_rejects_kml_without_patch(self, lupine_base):
        with pytest.raises(BuildError, match="patch"):
            KernelBuilder().build(lupine_base, kml=True)

    def test_entry_mechanisms(self, lupine_build, nokml_build):
        assert lupine_build.entry_mechanism is EntryMechanism.KML_CALL
        assert nokml_build.entry_mechanism is EntryMechanism.SYSCALL


class TestImageSizes:
    def test_lupine_roughly_27_percent_of_microvm(self, microvm_build,
                                                  nokml_build):
        fraction = nokml_build.image.size_mb / microvm_build.image.size_mb
        assert 0.24 <= fraction <= 0.30  # paper: 27%

    def test_tiny_shrinks_about_6_percent(self, nokml_build):
        tiny = build_variant(Variant.LUPINE_NOKML_TINY)
        shrink = 1 - tiny.image.size_mb / nokml_build.image.size_mb
        assert 0.04 <= shrink <= 0.10  # paper: 6%

    def test_general_within_33_percent(self, microvm_build, general_build):
        fraction = general_build.image.size_mb / microvm_build.image.size_mb
        assert fraction <= 0.34  # paper: 27-33% band upper bound

    def test_app_specific_sizes_in_paper_band(self, microvm_build):
        """Section 4.2: app kernels are 27-33% of microVM's size."""
        for name in ("nginx", "redis", "postgres", "elasticsearch"):
            build = build_variant(Variant.LUPINE_NOKML, get_app(name))
            fraction = build.image.size_mb / microvm_build.image.size_mb
            assert 0.24 <= fraction <= 0.34, name

    def test_general_is_upper_bound_for_app_kernels(self, general_build):
        for name in ("nginx", "redis", "mariadb"):
            build = build_variant(Variant.LUPINE, get_app(name))
            assert build.image.size_mb <= general_build.image.size_mb + 0.01


class TestTinySemantics:
    def test_tiny_uses_os_optimization(self):
        tiny = build_variant(Variant.LUPINE_TINY)
        assert tiny.size_optimized
        assert "CC_OPTIMIZE_FOR_SIZE" in tiny.config
        assert "CC_OPTIMIZE_FOR_PERFORMANCE" not in tiny.config

    def test_tiny_disables_base_full(self):
        tiny = build_variant(Variant.LUPINE_TINY)
        assert "BASE_FULL" not in tiny.config
        assert "BASE_SMALL" in tiny.config


class TestGeneralVariant:
    def test_general_ignores_target(self, general_build):
        targeted = build_variant(Variant.LUPINE_GENERAL, get_app("redis"))
        assert targeted.config.enabled == general_build.config.enabled


class TestMicrovmBuild:
    def test_microvm_build(self, microvm_build):
        assert len(microvm_build.config.enabled) == 833
        assert microvm_build.entry_mechanism is EntryMechanism.SYSCALL
        assert not microvm_build.image.kml_enabled

    def test_microvm_is_the_variantless_build(self, microvm_build):
        """The baseline is a ``VariantBuild`` whose variant is None, and
        its derived knobs are the baseline's: syscall entry, -O2."""
        assert isinstance(microvm_build, VariantBuild)
        assert microvm_build.variant is None
        assert not microvm_build.kml
        assert not microvm_build.size_optimized

    def test_engines_and_netpath_constructible(self, microvm_build):
        engine = microvm_build.syscall_engine()
        assert engine.supports("epoll_wait")
        assert microvm_build.network_path().hook_ns > 0


class TestBuilderValidation:
    def test_unbootable_config_rejected(self, tree):
        from repro.kconfig.resolver import Resolver

        config = Resolver(tree).resolve_names(["X86_64", "MMU"])
        with pytest.raises(BuildError, match="unbootable"):
            KernelBuilder().build(config)


def _assert_sets_memoized(config):
    """``enabled``/``builtin``/``modules`` equal a fresh walk of
    ``values`` (iteration order included) and are kept on the config."""
    for attr, keep in (("enabled", lambda v: v is not Tristate.NO),
                       ("builtin", lambda v: v is Tristate.YES),
                       ("modules", lambda v: v is Tristate.MODULE)):
        fresh = frozenset(
            name for name, value in config.values.items() if keep(value)
        )
        first = getattr(config, attr)
        assert first == fresh
        assert list(first) == list(fresh)
        assert getattr(config, attr) is first


class TestConfigSetMemos:
    @pytest.mark.parametrize(
        "variant,app", VARIANT_TARGETS,
        ids=lambda v: v.value if isinstance(v, Variant) else str(v),
    )
    def test_sets_equal_a_fresh_recomputation(self, variant, app):
        config = build_variant(variant, get_app(app) if app else None).config
        _assert_sets_memoized(config)
        renamed = config.with_name("renamed")
        _assert_sets_memoized(renamed)
        rebound = Resolver(config.tree)._rebind(config, "rebound")
        _assert_sets_memoized(rebound)
        # The memos live outside the fields: equality still compares
        # the configuration alone.
        assert renamed == config.with_name("renamed")
        assert len(config) == len(config.enabled)
