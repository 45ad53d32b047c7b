"""Memory footprint measurement (Figure 8).

The paper defines footprint as the minimum memory with which the guest
still satisfies its success criterion, found by repeatedly booting with a
decreasing memory parameter.  :func:`measure_min_memory_mb` reproduces that
search procedure; :func:`linux_min_memory_mb` runs it for a Linux guest.

A Linux guest boots when its page-granular requirement
(:meth:`FootprintModel.required_pages`) fits in the memory it is given.
Each component is rounded up to whole pages on its own:

- resident kernel code (from the built image; init sections freed),
- kernel static allocations (per enabled option, scaled: much of each
  option's state is allocated only on use),
- boot-time slack the allocator needs to make progress (page tables,
  percpu areas, buffers) -- common to every Linux guest,
- the userspace base (init + libc),
- the application's resident set, clamped to its mapped binary.  Linux
  loads binaries lazily, so only the pages the app touches count, not the
  binary's size -- which is why microVM and Lupine show no variation
  across hello/nginx/redis while unikernels do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.apps.app import Application
from repro.kbuild.image import KernelImage

PAGE_SIZE = 4096

#: Fraction of per-option static memory actually allocated at boot.
STATIC_ALLOC_FACTOR = 0.35

#: Userspace base: init system + dynamic loader + libc resident pages (KiB).
USERSPACE_BASE_KB = 2560.0

#: Boot-time slack: page tables, percpu, kernel stacks, I/O buffers (KiB).
BOOT_SLACK_KB = 9420.0


class OutOfMemoryError(MemoryError):
    """The guest does not boot in the memory it is given (guest OOM)."""


def _pages(kb: float) -> int:
    """Whole pages holding *kb* KiB."""
    return int(kb * 1024 + PAGE_SIZE - 1) // PAGE_SIZE


@dataclass(frozen=True)
class FootprintModel:
    """Memory requirements of one Linux guest (kernel image + app)."""

    image: KernelImage
    app_resident_kb: float = 512.0
    app_mapped_kb: float = 4096.0

    def kernel_static_kb(self) -> float:
        config = self.image.config
        # Sorted fold over the frozenset: keeps the float sum identical
        # under any PYTHONHASHSEED (footprints feed manifest digests).
        return STATIC_ALLOC_FACTOR * sum(
            config.tree[name].mem_cost_kb for name in sorted(config.enabled)
        )

    def required_pages(self) -> int:
        """Pages a successful boot needs resident."""
        return (
            _pages(self.image.resident_kernel_kb)
            + _pages(self.kernel_static_kb())
            + _pages(BOOT_SLACK_KB)
            + _pages(USERSPACE_BASE_KB)
            # A mapping spans at least one page; only its resident set
            # is ever touched.
            + min(max(1, _pages(self.app_mapped_kb)),
                  _pages(self.app_resident_kb))
        )

    def try_boot(self, memory_mb: int) -> bool:
        """Attempt a boot under *memory_mb*; True if the guest comes up."""
        return self.required_pages() <= memory_mb * 1024 * 1024 // PAGE_SIZE


def linux_min_memory_mb(image: KernelImage, app: Application) -> int:
    """Figure 8's metric for *app* running on the Linux kernel *image*."""
    model = FootprintModel(
        image=image,
        app_resident_kb=float(app.resident_kb),
        app_mapped_kb=float(app.binary_size_kb),
    )
    return measure_min_memory_mb(model.try_boot)


def measure_min_memory_mb(
    try_boot: Callable[[int], bool],
    upper_mb: int = 512,
    lower_mb: int = 1,
) -> int:
    """Find the minimum whole-MB memory for which *try_boot* succeeds.

    Mirrors the paper's methodology (decreasing memory passed to the
    monitor), implemented as a binary search for speed.  Raises if the
    guest cannot boot even at *upper_mb*.
    """
    if not try_boot(upper_mb):
        raise OutOfMemoryError(f"guest does not boot even with {upper_mb} MB")
    low, high = lower_mb, upper_mb  # invariant: high boots; low-1 untested
    while low < high:
        middle = (low + high) // 2
        if try_boot(middle):
            high = middle
        else:
            low = middle + 1
    return high
