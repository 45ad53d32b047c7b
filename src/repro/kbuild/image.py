"""Kernel image artifact.

A :class:`KernelImage` is the output of :class:`~repro.kbuild.builder.
KernelBuilder`: the compressed bzImage-equivalent whose size Figure 6
compares, plus the metadata downstream simulators need (uncompressed size
for decompression time, resident estimate for the memory footprint, the
configuration itself for boot/runtime behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Tuple, TypeVar

from repro.kbuild.optimizer import OptLevel
from repro.kconfig.resolver import ResolvedConfig

#: Unconditional kernel text+data not attributable to any option (KiB).
CORE_TEXT_KB = 3400.0

#: Fraction of kernel code resident after boot (init sections freed, cold
#: text never faulted in by the VMM's demand paging).
RESIDENT_CODE_FRACTION = 0.12

#: Core resident footprint common to every Linux kernel (KiB).
CORE_RESIDENT_KB = 6144.0

#: Compression ratios by kernel compressor option.
COMPRESSION_RATIOS = {
    "KERNEL_GZIP": 0.37,
    "KERNEL_XZ": 0.30,
    "KERNEL_BZIP2": 0.34,
}

DEFAULT_COMPRESSION = 0.37

_T = TypeVar("_T")


@dataclass(frozen=True)
class KernelImage:
    """A built kernel image."""

    name: str
    config: ResolvedConfig
    opt_level: OptLevel
    uncompressed_kb: float
    compressed_kb: float
    modules_kb: float = 0.0
    kml_enabled: bool = False
    patches: Tuple[str, ...] = ()

    @property
    def size_mb(self) -> float:
        """Compressed image size in MiB -- the Figure 6 metric."""
        return self.compressed_kb / 1024.0

    @property
    def resident_kernel_kb(self) -> float:
        """Post-boot resident kernel code+rodata estimate (KiB)."""
        option_kb = max(0.0, self.uncompressed_kb - CORE_TEXT_KB)
        return CORE_RESIDENT_KB + RESIDENT_CODE_FRACTION * option_kb

    @property
    def enabled_options(self) -> FrozenSet[str]:
        return self.config.enabled

    def has_option(self, name: str) -> bool:
        return name in self.config

    def derived(self, key: str, compute: Callable[["KernelImage"], _T]) -> _T:
        """``compute(self)``, evaluated on first use and kept on the image.

        For values downstream simulators derive from the image alone (the
        boot simulator's initcall phase, say): config and optimization
        level never change after the build, so the value holds for every
        later boot of this kernel.  *key* names the value; the memos live
        outside the dataclass fields, so equality, ``repr`` and the harness
        codec see only the fields.
        """
        memo = self.__dict__.setdefault("_derived", {})
        if key not in memo:
            memo[key] = compute(self)
        return memo[key]

    def __str__(self) -> str:
        kml = "+kml" if self.kml_enabled else ""
        return f"<KernelImage {self.name}{kml} {self.size_mb:.2f} MB>"
