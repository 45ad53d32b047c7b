"""Figure 8's boot attempt replayed one page at a time.

:meth:`repro.mm.footprint.FootprintModel.try_boot` compares one page sum
with the memory it is given.  This replays the attempt as a demand-paged
guest makes it: the kernel's resident code, its static allocations and
the boot slack are reserved, then init+libc and the application are each
mapped and their resident sets touched.  Every page takes the next frame
of one budget that nothing frees, and the boot fails at the first page
past it.
"""

from __future__ import annotations

from repro.mm.footprint import (
    BOOT_SLACK_KB,
    PAGE_SIZE,
    USERSPACE_BASE_KB,
    FootprintModel,
)


def _pages(kb: float) -> int:
    return int(kb * 1024 + PAGE_SIZE - 1) // PAGE_SIZE


def replay_boot(model: FootprintModel, memory_mb: int) -> bool:
    """True if every page of *model*'s boot gets a frame of *memory_mb*."""
    reserved = [_pages(kb) for kb in (model.image.resident_kernel_kb,
                                      model.kernel_static_kb(),
                                      BOOT_SLACK_KB)]
    # Each mapping is fresh, so every touched page faults; a touch stops
    # at the mapping's end, and a mapping spans at least one page.
    touched = [
        min(max(1, _pages(mapped_kb)), _pages(resident_kb))
        for mapped_kb, resident_kb in (
            (USERSPACE_BASE_KB, USERSPACE_BASE_KB),
            (model.app_mapped_kb, model.app_resident_kb),
        )
    ]
    free = memory_mb * 1024 * 1024 // PAGE_SIZE
    for pages in reserved + touched:
        for _ in range(pages):
            if free <= 0:
                return False
            free -= 1
    return True
