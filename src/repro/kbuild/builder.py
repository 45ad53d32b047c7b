"""The kernel build pipeline: config -> compile -> link -> compress.

Checks the same preconditions a real build would (an x86-64 target, a
console, a way to mount a root filesystem), sums per-option object
contributions at the optimization level the configuration selects, and
compresses with the configured compressor.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.kbuild.image import (
    COMPRESSION_RATIOS,
    CORE_TEXT_KB,
    DEFAULT_COMPRESSION,
    KernelImage,
)
from repro.faults import fault_site
from repro.kbuild.optimizer import OptLevel
from repro.kconfig.resolver import ResolvedConfig
from repro.observe import METRICS, span
from repro.observe.metrics import DEFAULT_KB_BUCKETS


class BuildError(RuntimeError):
    """Raised when a configuration cannot produce a bootable kernel."""


#: Options a bootable guest kernel must have; missing ones fail the build
#: with the (simulated) equivalent of a link error or an unbootable image.
_REQUIRED_OPTIONS: Tuple[Tuple[str, str], ...] = (
    ("X86_64", "target architecture not selected"),
    ("MMU", "cannot build an MMU-less x86-64 kernel"),
    ("PRINTK", "kernel cannot report boot progress"),
    ("BINFMT_ELF", "kernel cannot execute init"),
    ("VFS_CORE", "no virtual filesystem layer"),
    ("TTY", "no console layer"),
)


class KernelBuilder:
    """Builds :class:`KernelImage` artifacts from resolved configurations."""

    def build(
        self,
        config: ResolvedConfig,
        name: Optional[str] = None,
        kml: bool = False,
        patches: Tuple[str, ...] = (),
    ) -> KernelImage:
        """Build *config* into a kernel image.

        ``kml=True`` requires the KML patch to have been applied to the tree
        (i.e. ``KERNEL_MODE_LINUX`` resolvable and enabled in *config*).
        """
        with span("kbuild.build", category="kbuild",
                  config=name or config.name or "kernel",
                  options=len(config.enabled), kml=kml):
            # Fault site: an injected transient failure models a flaky
            # toolchain (OOM-killed compiler, racy dependency) that a
            # retry legitimately cures.
            with fault_site("kbuild.build"):
                image = self._build(config, name=name, kml=kml,
                                    patches=patches)
        METRICS.counter("kbuild.builds").inc()
        METRICS.histogram(
            "kbuild.image.compressed_kb", DEFAULT_KB_BUCKETS
        ).observe(image.compressed_kb)
        return image

    def _build(
        self,
        config: ResolvedConfig,
        name: Optional[str] = None,
        kml: bool = False,
        patches: Tuple[str, ...] = (),
    ) -> KernelImage:
        self._check_buildable(config)
        if kml:
            if "kml" not in patches:
                raise BuildError(
                    "KML requested but the KML patch is not applied"
                )
            if "KERNEL_MODE_LINUX" not in config:
                raise BuildError(
                    "KML requested but CONFIG_KERNEL_MODE_LINUX is not enabled"
                )
            if "PARAVIRT" in config:
                # The paper: CONFIG_PARAVIRT "unfortunately conflicts with
                # KML" -- the resolver enforces this, so reaching here means
                # the config was assembled by hand incorrectly.
                raise BuildError("CONFIG_PARAVIRT conflicts with KML")

        opt_level = (OptLevel.OS if "CC_OPTIMIZE_FOR_SIZE" in config
                     else OptLevel.O2)

        if config.modules and "MODULES" not in config:
            raise BuildError(
                "configuration builds modules but CONFIG_MODULES is not set"
            )
        # Only built-in (=y) options are linked into the image; =m options
        # are compiled into loadable modules shipped alongside it.  Both
        # folds run in sorted order: builtin/modules are frozensets, and
        # image sizes flow into boot times and manifest digests, which
        # must not depend on PYTHONHASHSEED.
        option_kb = sum(
            config.tree[option_name].size_kb
            for option_name in sorted(config.builtin)
        )
        module_kb = sum(
            config.tree[option_name].size_kb
            for option_name in sorted(config.modules)
        )
        uncompressed = (CORE_TEXT_KB + option_kb) * opt_level.size_factor
        compressed = uncompressed * self._compression_ratio(config)

        return KernelImage(
            name=name or config.name or "kernel",
            config=config,
            opt_level=opt_level,
            uncompressed_kb=uncompressed,
            compressed_kb=compressed,
            modules_kb=module_kb * opt_level.size_factor,
            kml_enabled=kml,
            patches=tuple(patches),
        )

    @staticmethod
    def _check_buildable(config: ResolvedConfig) -> None:
        missing = [
            f"CONFIG_{option_name}: {reason}"
            for option_name, reason in _REQUIRED_OPTIONS
            if option_name not in config
        ]
        if missing:
            raise BuildError("unbootable configuration: " + "; ".join(missing))

    @staticmethod
    def _compression_ratio(config: ResolvedConfig) -> float:
        for option_name, ratio in COMPRESSION_RATIOS.items():
            if option_name in config:
                return ratio
        return DEFAULT_COMPRESSION
