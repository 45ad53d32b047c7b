"""The Linux 4.0 option database model.

Builds a :class:`~repro.kconfig.model.KconfigTree` with

- every option of Firecracker's microVM configuration, curated by name
  (283 ``lupine-base`` + 550 removed options; see :mod:`repro.kconfig.data`),
- the extension options used by ablations and by the KML patch, and
- deterministic synthetic filler options per source directory so the
  per-directory totals match Linux 4.0's 15,953 options (paper Figure 3).

Cost-model values (object size, initcall cost, static memory) are attached
per option: group means modulated by a stable per-name factor, with explicit
overrides for the options that dominate the paper's measurements.

One option model serves every tree: each curated and filler
:class:`~repro.kconfig.model.ConfigOption` is built once per process,
and every tree holds those same objects.  A patched tree differs from
the pristine one only in its patch options and in taking a shorter
prefix of the filler (the KML tree adds ``KERNEL_MODE_LINUX`` and drops
the last ``kernel`` filler option).  Sharing is safe because no code
assigns an option field after construction.  Trees are cached by their
normalized ``(version, sorted patches)``, so every spelling of a call
returns the same tree.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from repro.kconfig.data.base_options import (
    BASE_DEPENDS,
    BASE_GROUPS,
    BASE_SELECTS,
)
from repro.kconfig.data.base_options import BOOT_OVERRIDES as BASE_BOOT
from repro.kconfig.data.base_options import MEM_OVERRIDES as BASE_MEM
from repro.kconfig.data.base_options import SIZE_OVERRIDES as BASE_SIZE
from repro.kconfig.data.extensions import (
    EXTENSION_DEPENDS,
    EXTENSION_GROUPS,
    EXTENSION_SELECTS,
    PATCH_ONLY,
)
from repro.kconfig.data.removed_options import BOOT_OVERRIDES as REMOVED_BOOT
from repro.kconfig.data.removed_options import MEM_OVERRIDES as REMOVED_MEM
from repro.kconfig.data.removed_options import (
    REMOVED_DEPENDS,
    REMOVED_GROUPS,
    REMOVED_SELECTS,
)
from repro.kconfig.data.removed_options import SIZE_OVERRIDES as REMOVED_SIZE
from repro.kconfig.expr import TRUE, parse_expr
from repro.kconfig.model import ConfigOption, KconfigTree, OptionType

#: Total number of configuration options in Linux 4.0 (paper Section 3.1).
LINUX_4_0_TOTAL_OPTIONS = 15953

#: Per-directory option totals for Linux 4.0 (paper Figure 3, log scale:
#: roughly half of all options live under drivers/).
DIRECTORY_TOTALS: Dict[str, int] = {
    "drivers": 8450,
    "arch": 3400,
    "sound": 1250,
    "net": 1106,
    "fs": 630,
    "lib": 280,
    "kernel": 330,
    "init": 120,
    "crypto": 180,
    "mm": 70,
    "security": 60,
    "block": 40,
    "virt": 12,
    "samples": 12,
    "usr": 13,
}

#: Name-pool prefixes for synthetic filler options, per directory.  Filler
#: options never appear in any configuration the paper builds; they exist so
#: whole-tree statistics (Figure 3) are faithful.
_FILLER_PREFIXES: Dict[str, Tuple[str, ...]] = {
    "drivers": (
        "NET_VENDOR", "SCSI_LLD", "USB_GADGET", "GPU_PANEL", "HWMON_SENSOR",
        "MEDIA_TUNER", "IIO_ADC", "MFD_CHIP", "REGULATOR_PMIC", "STAGING_DRV",
        "INPUT_TOUCH", "RTC_DRV", "WDT_DRV", "MTD_NAND", "CLK_DRV",
    ),
    "arch": ("ARCH_PLAT", "SOC_BOARD", "CPU_ERRATA", "MACH_VARIANT"),
    "sound": ("SND_SOC_CODEC", "SND_PCI_CARD", "SND_USB_DEV", "SND_FW"),
    "net": ("NET_PROTO_EXT", "NETFILTER_XT", "NET_DSA_TAG"),
    "fs": ("FS_FEATURE", "FS_LEGACY"),
    "lib": ("LIB_HELPER", "LIB_TEST"),
    "kernel": ("KERNEL_TUNABLE",),
    "init": ("INIT_TUNABLE",),
    "crypto": ("CRYPTO_ALG_EXT",),
    "mm": ("MM_TUNABLE",),
    "security": ("SECURITY_MODULE_EXT",),
    "block": ("BLK_FEATURE",),
    "virt": ("VIRT_GUEST_EXT",),
    "samples": ("SAMPLE_MODULE",),
    "usr": ("USR_INITRAMFS",),
}


def _stable_factor(name: str, low: float = 0.55, high: float = 1.65) -> float:
    """A deterministic per-name multiplier in ``[low, high]``.

    Derived from an md5 digest so it is stable across Python processes
    (``hash()`` is salted and unsuitable).
    """
    digest = hashlib.md5(name.encode("ascii")).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return low + fraction * (high - low)


def _curated_option(
    name: str,
    directory: str,
    category: str,
    size_mean: float,
    boot_mean: float,
    mem_mean: float,
    depends: Dict[str, str],
    selects: Dict[str, Tuple[str, ...]],
    size_overrides: Dict[str, float],
    boot_overrides: Dict[str, float],
    mem_overrides: Dict[str, float],
) -> ConfigOption:
    factor = _stable_factor(name)
    depends_expr = TRUE
    if name in depends:
        depends_expr = parse_expr(depends[name])
    return ConfigOption(
        name=name,
        option_type=OptionType.BOOL,
        directory=directory,
        depends_on=depends_expr,
        selects=selects.get(name, ()),
        category=category,
        size_kb=size_overrides.get(name, size_mean * factor),
        boot_cost_us=boot_overrides.get(name, boot_mean * factor),
        mem_cost_kb=mem_overrides.get(name, mem_mean * factor),
    )


def base_option_names() -> List[str]:
    """The 283 option names of ``lupine-base`` (paper Section 3.1)."""
    return [name for group in BASE_GROUPS for name in group[5]]


def removed_option_names() -> List[str]:
    """The 550 options removed from microVM to form lupine-base."""
    return [name for group in REMOVED_GROUPS for name in group[6]]


def microvm_option_names() -> List[str]:
    """All 833 options of the Firecracker microVM configuration."""
    return base_option_names() + removed_option_names()


def removed_options_by_category() -> Dict[str, List[str]]:
    """Removed options keyed by paper category (``app``/``mp``/``hw``)."""
    by_category: Dict[str, List[str]] = {}
    for subcategory, category, _, _, _, _, names in REMOVED_GROUPS:
        by_category.setdefault(category, []).extend(names)
    return by_category


def removed_options_by_subcategory() -> Dict[Tuple[str, str], List[str]]:
    """Removed options keyed by ``(category, subcategory)``."""
    by_sub: Dict[Tuple[str, str], List[str]] = {}
    for subcategory, category, _, _, _, _, names in REMOVED_GROUPS:
        by_sub.setdefault((category, subcategory), []).extend(names)
    return by_sub


@lru_cache(maxsize=None)
def _curated_options() -> Tuple[ConfigOption, ...]:
    """Every curated option, patch-only ones included, in tree order."""
    options = []
    for group_name, directory, size_mean, boot_mean, mem_mean, names in BASE_GROUPS:
        for name in names:
            options.append(
                _curated_option(
                    name, directory, f"base:{group_name}",
                    size_mean, boot_mean, mem_mean,
                    BASE_DEPENDS, BASE_SELECTS, BASE_SIZE, BASE_BOOT, BASE_MEM,
                )
            )
    for subcat, category, directory, size_mean, boot_mean, mem_mean, names in (
        REMOVED_GROUPS
    ):
        for name in names:
            options.append(
                _curated_option(
                    name, directory, f"{category}:{subcat}",
                    size_mean, boot_mean, mem_mean,
                    REMOVED_DEPENDS, REMOVED_SELECTS,
                    REMOVED_SIZE, REMOVED_BOOT, REMOVED_MEM,
                )
            )
    for subcat, category, directory, size_mean, boot_mean, mem_mean, names in (
        EXTENSION_GROUPS
    ):
        for name in names:
            options.append(
                _curated_option(
                    name, directory, f"{category}:{subcat}",
                    size_mean, boot_mean, mem_mean,
                    EXTENSION_DEPENDS, EXTENSION_SELECTS, {}, {}, {},
                )
            )
    return tuple(options)


def _add_curated(tree: KconfigTree, patches: Tuple[str, ...]) -> None:
    for option in _curated_options():
        required_patch = PATCH_ONLY.get(option.name)
        if required_patch is None or required_patch in patches:
            tree.add(option)


def _register_choices(tree: KconfigTree) -> None:
    """The mutually-exclusive option groups the kernel defines as choices."""
    from repro.kconfig.model import ChoiceGroup

    tree.add_choice(ChoiceGroup(
        name="timer-frequency",
        members=("HZ_100", "HZ_250", "HZ_1000"),
        default_member="HZ_250",
    ))
    tree.add_choice(ChoiceGroup(
        name="slab-allocator",
        members=("SLUB", "SLOB"),
        default_member="SLUB",
    ))
    tree.add_choice(ChoiceGroup(
        name="kernel-compression",
        members=("KERNEL_GZIP", "KERNEL_XZ", "KERNEL_BZIP2"),
        default_member="KERNEL_GZIP",
    ))
    tree.add_choice(ChoiceGroup(
        name="cc-optimization",
        members=("CC_OPTIMIZE_FOR_PERFORMANCE", "CC_OPTIMIZE_FOR_SIZE"),
        default_member="CC_OPTIMIZE_FOR_PERFORMANCE",
    ))
    tree.add_choice(ChoiceGroup(
        name="base-size",
        members=("BASE_FULL", "BASE_SMALL"),
        default_member="BASE_FULL",
    ))


@lru_cache(maxsize=None)
def _filler_options(directory: str) -> Tuple[ConfigOption, ...]:
    """The filler *directory* needs in the pristine tree, in tree order.

    Patches only add curated options, so a patched tree needs fewer
    filler options: a prefix of these.
    """
    prefixes = _FILLER_PREFIXES[directory]
    curated = sum(
        1 for option in _curated_options()
        if option.directory == directory and option.name not in PATCH_ONLY
    )
    options = []
    for index in range(DIRECTORY_TOTALS[directory] - curated):
        prefix = prefixes[index % len(prefixes)]
        name = f"{prefix}_{index // len(prefixes):04d}"
        factor = _stable_factor(name)
        options.append(
            ConfigOption(
                name=name,
                option_type=OptionType.TRISTATE,
                directory=directory,
                size_kb=6.0 * factor,
                boot_cost_us=3.0 * factor,
                mem_cost_kb=1.0 * factor,
                synthetic=True,
            )
        )
    return tuple(options)


def _add_filler(tree: KconfigTree) -> None:
    counts = tree.count_by_directory()
    for directory, total in DIRECTORY_TOTALS.items():
        existing = counts.get(directory, 0)
        missing = total - existing
        if missing < 0:
            raise AssertionError(
                f"curated options exceed directory total for {directory}: "
                f"{existing} > {total}"
            )
        tree.add_all(_filler_options(directory)[:missing])


def build_linux_tree(
    version: str = "4.0", patches: Iterable[str] = ()
) -> KconfigTree:
    """Build the option tree for Linux *version* with *patches* applied.

    Only version ``4.0`` is modelled (the paper uses it because it is the
    most recent KML-patched kernel).  ``patches=("kml",)`` adds the
    ``KERNEL_MODE_LINUX`` option exactly as applying the KML patch does.
    The tree is cached by ``(version, sorted patches)``, however the call
    spells them; ``build_linux_tree.cache_clear()`` drops the cached trees
    (the shared option objects stay).
    """
    return _build_tree(version, tuple(sorted(set(patches))))


@lru_cache(maxsize=8)
def _build_tree(version: str, patches: Tuple[str, ...]) -> KconfigTree:
    if version != "4.0":
        raise ValueError(f"only Linux 4.0 is modelled, not {version!r}")
    unknown = set(patches) - set(PATCH_ONLY.values())
    if unknown:
        raise ValueError(f"unknown patches: {sorted(unknown)}")
    tree = KconfigTree(kernel_version=version)
    _add_curated(tree, patches)
    _register_choices(tree)
    _add_filler(tree)
    # Filler tops every directory up to its Figure 3 total, so the tree size
    # is invariant: patch-provided options displace one filler slot.
    if len(tree) != LINUX_4_0_TOTAL_OPTIONS:
        raise AssertionError(
            f"tree has {len(tree)} options, expected {LINUX_4_0_TOTAL_OPTIONS}"
        )
    # Pre-build the resolution index (reverse dependencies + compiled
    # expressions) while we hold the lru_cache slot: the tree is complete
    # here, and every resolver on this shared instance reuses the index.
    tree.resolution_index()
    return tree


# Tests rebuild from scratch through this, as they did when the public
# function carried the lru_cache itself.
build_linux_tree.cache_clear = _build_tree.cache_clear


def curated_totals() -> Dict[str, int]:
    """Sanity counts used by tests: base/removed/microvm option set sizes."""
    return {
        "base": len(base_option_names()),
        "removed": len(removed_option_names()),
        "microvm": len(microvm_option_names()),
    }
