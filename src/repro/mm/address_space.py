"""Address spaces with demand paging.

A real (if small) VM subsystem: mappings are created eagerly but pages are
allocated only on first touch, against a shared physical-page budget.  The
footprint model boots guests against decreasing budgets; an
:class:`OutOfMemoryError` during boot is the simulated analogue of the
guest failing to come up.

Frames are numbered in allocation order, so a static reservation
(:meth:`PhysicalMemory.reserve_kb`: kernel image, static data, boot
slack) takes its pages in one bounds check; only demand-paged memory
is allocated frame by frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

PAGE_SIZE = 4096


class OutOfMemoryError(MemoryError):
    """The physical page budget is exhausted (guest OOM)."""


@dataclass(frozen=True)
class Page:
    """One allocated physical page."""

    frame_number: int
    address_space_id: int
    virtual_page: int


@dataclass
class PhysicalMemory:
    """The guest's physical memory budget, shared by all address spaces."""

    total_bytes: int
    _next_frame: int = 0

    @property
    def total_pages(self) -> int:
        return self.total_bytes // PAGE_SIZE

    @property
    def allocated_pages(self) -> int:
        return self._next_frame

    @property
    def free_pages(self) -> int:
        return self.total_pages - self._next_frame

    def allocate_frame(self) -> int:
        if self._next_frame >= self.total_pages:
            raise OutOfMemoryError(
                f"out of memory: {self.total_pages} pages exhausted"
            )
        frame = self._next_frame
        self._next_frame += 1
        return frame

    def reserve_kb(self, kb: float) -> None:
        """Carve out a static (non-pageable) reservation, e.g. kernel data.

        The frames are taken in one step, with the state and error that
        allocating them one by one would leave: a reservation that does
        not fit exhausts the budget, then raises.
        """
        pages = int(kb * 1024 + PAGE_SIZE - 1) // PAGE_SIZE
        if pages <= 0:
            return
        total = self.total_pages
        if self._next_frame + pages > total:
            self._next_frame = max(self._next_frame, total)
            raise OutOfMemoryError(f"out of memory: {total} pages exhausted")
        self._next_frame += pages


@dataclass
class Mapping:
    """A virtual memory area (VMA)."""

    start_page: int
    page_count: int
    name: str
    eager: bool = False

    @property
    def end_page(self) -> int:
        return self.start_page + self.page_count


@dataclass
class AddressSpace:
    """One process's address space."""

    asid: int
    physical: PhysicalMemory
    _mappings: List[Mapping] = field(default_factory=list)
    _pages: Dict[int, Page] = field(default_factory=dict)
    _next_free_page: int = 0x1000

    def mmap(
        self,
        size_kb: float,
        name: str = "[anon]",
        eager: bool = False,
    ) -> Mapping:
        """Create a mapping; allocate pages now only if *eager*."""
        page_count = max(1, int(size_kb * 1024 + PAGE_SIZE - 1) // PAGE_SIZE)
        mapping = Mapping(
            start_page=self._next_free_page,
            page_count=page_count,
            name=name,
            eager=eager,
        )
        self._next_free_page += page_count + 16  # guard gap
        self._mappings.append(mapping)
        if eager:
            for page in range(mapping.start_page, mapping.end_page):
                self._fault(page)
        return mapping

    def touch(self, mapping: Mapping, offset_kb: float = 0.0) -> Page:
        """Access one page of *mapping*, faulting it in if necessary."""
        page = mapping.start_page + int(offset_kb * 1024) // PAGE_SIZE
        if page >= mapping.end_page:
            raise ValueError("access beyond end of mapping")
        return self._fault(page)

    def touch_range(self, mapping: Mapping, kb: float) -> int:
        """Touch the first *kb* of *mapping*; returns pages faulted."""
        pages = min(
            mapping.page_count, int(kb * 1024 + PAGE_SIZE - 1) // PAGE_SIZE
        )
        faulted = 0
        for index in range(pages):
            page = mapping.start_page + index
            if page not in self._pages:
                self._fault(page)
                faulted += 1
        return faulted

    def _fault(self, virtual_page: int) -> Page:
        existing = self._pages.get(virtual_page)
        if existing is not None:
            return existing
        page = Page(
            frame_number=self.physical.allocate_frame(),
            address_space_id=self.asid,
            virtual_page=virtual_page,
        )
        self._pages[virtual_page] = page
        return page

    # -- accounting -----------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    @property
    def resident_kb(self) -> float:
        return self.resident_pages * PAGE_SIZE / 1024.0

    @property
    def mapped_kb(self) -> float:
        return sum(m.page_count for m in self._mappings) * PAGE_SIZE / 1024.0

    def mappings(self) -> Iterator[Mapping]:
        return iter(self._mappings)

    def find_mapping(self, name: str) -> Optional[Mapping]:
        for mapping in self._mappings:
            if mapping.name == name:
                return mapping
        return None
