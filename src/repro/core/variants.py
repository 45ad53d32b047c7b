"""The evaluated Lupine kernel variants (Section 4, Table 2).

- ``lupine``        : app-specific config + KML.  KML conflicts with
  ``CONFIG_PARAVIRT``, so KML variants drop PARAVIRT (and its dependents),
  which is why Figure 7 reports boot time for ``-nokml``.
- ``lupine-nokml``  : app-specific config, no KML, keeps PARAVIRT.
- ``lupine-tiny``   : optimized for space: -Os plus 9 modified
  space/performance tradeoff options (footnote 8).
- ``lupine-general``: the 19-option union config; not application-specific.
- ``lupine-derived``: app-specific config requested from *observed* usage
  (:mod:`repro.kconfig.derive`) instead of the curated manifest; the
  trace-driven family, with and without KML.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.apps.app import Application
from repro.core.buildcache import BUILD_CACHE, config_fingerprint
from repro.core.manifest import ApplicationManifest
from repro.core.specialization import (
    app_config_names,
    derived_app_config_names,
    lupine_general_names,
)
from repro.kbuild.builder import KernelBuilder
from repro.kbuild.image import KernelImage
from repro.kconfig.configs import lupine_base_config, microvm_config
from repro.kconfig.database import base_option_names, build_linux_tree
from repro.kconfig.resolver import ResolvedConfig, Resolver
from repro.kml.patch import KmlPatch
from repro.netstack.path import NetworkPath
from repro.simcore.clock import VirtualClock
from repro.syscall.cpu import EntryMechanism
from repro.syscall.dispatch import SyscallEngine

#: PARAVIRT and everything that needs it: dropped by KML variants.
_PARAVIRT_FAMILY = ("PARAVIRT", "PARAVIRT_CLOCK", "KVM_GUEST")

#: The -tiny variant's 9 modified options: 7 disabled, 2 enabled
#: (CONFIG_BASE_FULL -> BASE_SMALL, -O2 -> -Os among them).
TINY_DISABLED: Tuple[str, ...] = (
    "BASE_FULL",
    "IKCONFIG",
    "JUMP_LABEL",
    "PRINTK_TIME",
    "CC_OPTIMIZE_FOR_PERFORMANCE",
    "ELF_CORE",
    "CROSS_MEMORY_ATTACH",
)
TINY_ENABLED: Tuple[str, ...] = ("BASE_SMALL", "CC_OPTIMIZE_FOR_SIZE")


class Variant(enum.Enum):
    """The named variants of Table 4."""

    LUPINE = "lupine"
    LUPINE_TINY = "lupine-tiny"
    LUPINE_NOKML = "lupine-nokml"
    LUPINE_NOKML_TINY = "lupine-nokml-tiny"
    LUPINE_GENERAL = "lupine-general"
    LUPINE_GENERAL_NOKML = "lupine-nokml-general"
    LUPINE_DERIVED = "lupine-derived"
    LUPINE_DERIVED_NOKML = "lupine-nokml-derived"

    @property
    def kml(self) -> bool:
        return self in (Variant.LUPINE, Variant.LUPINE_TINY,
                        Variant.LUPINE_GENERAL, Variant.LUPINE_DERIVED)

    @property
    def tiny(self) -> bool:
        return self in (Variant.LUPINE_TINY, Variant.LUPINE_NOKML_TINY)

    @property
    def general(self) -> bool:
        return self in (Variant.LUPINE_GENERAL, Variant.LUPINE_GENERAL_NOKML)

    @property
    def derived(self) -> bool:
        """Config requested from observed usage instead of curation."""
        return self in (Variant.LUPINE_DERIVED, Variant.LUPINE_DERIVED_NOKML)


@dataclass(frozen=True)
class VariantBuild:
    """A built kernel: resolved config + kernel image + runtime knobs.

    ``variant=None`` is the microVM baseline (:func:`build_microvm`), as
    in :class:`~repro.simcore.guest.GuestSpec`.
    """

    variant: Optional[Variant]
    config: ResolvedConfig
    image: KernelImage
    #: Content fingerprint of the configuration this image was built from;
    #: two builds with the same fingerprint are the same kernel.
    fingerprint: str = ""

    @property
    def kml(self) -> bool:
        return self.image.kml_enabled

    @property
    def entry_mechanism(self) -> EntryMechanism:
        return EntryMechanism.KML_CALL if self.kml else EntryMechanism.SYSCALL

    @property
    def size_optimized(self) -> bool:
        return "CC_OPTIMIZE_FOR_SIZE" in self.config

    def syscall_engine(self, kpti: bool = False,
                       clock: Optional[VirtualClock] = None) -> SyscallEngine:
        """A fresh engine for this kernel; *clock* binds it to a guest's
        timeline (omitted: a private clock, the standalone idiom)."""
        return SyscallEngine.for_config(
            self.config.enabled,
            entry=self.entry_mechanism,
            kpti=kpti,
            size_optimized=self.size_optimized,
            clock=clock,
        )

    def network_path(self) -> NetworkPath:
        return NetworkPath.for_options(
            self.config.enabled, size_optimized=self.size_optimized
        )


def _variant_names(
    target: Union[Application, ApplicationManifest, None],
    variant: Variant,
) -> List[str]:
    if variant.general:
        names = list(lupine_general_names())
    elif variant.derived:
        if target is None:
            raise ValueError(
                "derived variants specialize to observed usage; "
                "pass a target application"
            )
        names = list(derived_app_config_names(target))
    elif target is None:
        # No application: the bare lupine-base kernel (enough for hello
        # world, the Figure 6/7 measurement target).
        names = list(base_option_names())
    else:
        names = list(app_config_names(target))
    if variant.tiny:
        removed = set(TINY_DISABLED)
        names = [n for n in names if n not in removed]
        names.extend(TINY_ENABLED)
    if variant.kml:
        paravirt = set(_PARAVIRT_FAMILY)
        names = [n for n in names if n not in paravirt]
        names.append("KERNEL_MODE_LINUX")
    return names


def variant_fingerprint(
    variant: Variant,
    target: Union[Application, ApplicationManifest, None] = None,
) -> str:
    """Content fingerprint of the kernel *variant* would build for *target*.

    Computable without building: two (variant, target) pairs with equal
    fingerprints resolve to the identical kernel image.
    """
    names = _variant_names(target, variant)
    patches: Tuple[str, ...] = ("kml",) if variant.kml else ()
    return config_fingerprint(names, kml=variant.kml, patches=patches)


def build_variant(
    variant: Variant,
    target: Union[Application, ApplicationManifest, None] = None,
) -> VariantBuild:
    """Build one Lupine variant for *target* (None => hello-world-ish base).

    KML variants build against the KML-patched tree; others against the
    pristine Linux 4.0 tree.  Builds are served from the process-wide
    :data:`~repro.core.buildcache.BUILD_CACHE`, content-addressed on the
    configuration fingerprint: every caller requesting the same resolved
    option set shares one build.
    """
    fingerprint = variant_fingerprint(variant, target)

    def _build() -> VariantBuild:
        if variant.kml:
            tree = KmlPatch().apply("4.0")
            patches: Tuple[str, ...] = ("kml",)
        else:
            tree = build_linux_tree()
            patches = ()
        names = _variant_names(target, variant)
        target_name = (
            "general" if (variant.general or target is None) else (
                target.name
                if isinstance(target, Application)
                else target.app_name
            )
        )
        # Every variant is a small request delta against lupine-base, so
        # derive it warm from the shared base fixpoint (resolved once per
        # tree and served from the resolution cache thereafter).
        config = Resolver(tree).resolve_names_from(
            lupine_base_config(tree), names,
            name=f"{variant.value}[{target_name}]",
        )
        image = KernelBuilder().build(
            config, name=config.name, kml=variant.kml, patches=patches
        )
        return VariantBuild(
            variant=variant, config=config, image=image,
            fingerprint=fingerprint,
        )

    # The cache key carries the variant so cosmetically different variants
    # that happen to resolve identically keep their own reporting identity;
    # the stored ``fingerprint`` is the pure content hash.
    return BUILD_CACHE.get_or_build(f"{variant.value}:{fingerprint}", _build)


def build_microvm() -> VariantBuild:
    """Build the microVM baseline kernel (shared via the build cache).

    Its config has neither ``CC_OPTIMIZE_FOR_SIZE`` nor KML, so the build
    enters through ``syscall`` and is not size-optimized.
    """

    def _build() -> VariantBuild:
        config = microvm_config()
        image = KernelBuilder().build(config, name="microvm")
        fingerprint = config_fingerprint(config.enabled)
        return VariantBuild(
            variant=None, config=config, image=image,
            fingerprint=fingerprint,
        )

    return BUILD_CACHE.get_or_build("microvm:baseline", _build)
