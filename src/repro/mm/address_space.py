"""Address spaces with demand paging.

A real (if small) VM subsystem: mappings are created eagerly but pages are
allocated only on first touch, against a shared physical-page budget.  The
footprint model boots guests against decreasing budgets; an
:class:`OutOfMemoryError` during boot is the simulated analogue of the
guest failing to come up.

Frames are numbered in allocation order, so a run of frames is taken in
one bounds check (:meth:`PhysicalMemory.allocate_frames`) with the state
and error that taking them one by one would leave: a static reservation
(:meth:`PhysicalMemory.reserve_kb`: kernel image, static data, boot
slack) and the missing pages of a touched range each take one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

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
            raise self.exhausted()
        frame = self._next_frame
        self._next_frame += 1
        return frame

    def allocate_frames(self, count: int) -> range:
        """The next *count* frames, or as many as the budget still holds.

        The frames ``allocate_frame`` would hand out one by one until it
        raised; a caller that got fewer than it asked for raises
        :class:`OutOfMemoryError` after recording them.
        """
        first = self._next_frame
        self._next_frame = max(first, min(first + count, self.total_pages))
        return range(first, self._next_frame)

    def reserve_kb(self, kb: float) -> None:
        """Carve out a static (non-pageable) reservation, e.g. kernel data.

        A reservation that does not fit exhausts the budget, then raises.
        """
        pages = int(kb * 1024 + PAGE_SIZE - 1) // PAGE_SIZE
        if len(self.allocate_frames(pages)) < pages:
            raise self.exhausted()

    def exhausted(self) -> OutOfMemoryError:
        """The error an allocation past the budget raises."""
        return OutOfMemoryError(
            f"out of memory: {self.total_pages} pages exhausted"
        )


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
    #: Virtual page -> frame of every resident page.
    _frames: Dict[int, int] = field(default_factory=dict)
    #: The :class:`Page` :meth:`touch` returned for each page it touched.
    _touched: Dict[int, Page] = field(default_factory=dict)
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
            self._fault(range(mapping.start_page, mapping.end_page))
        return mapping

    def touch(self, mapping: Mapping, offset_kb: float = 0.0) -> Page:
        """Access one page of *mapping*, faulting it in if necessary."""
        page = mapping.start_page + int(offset_kb * 1024) // PAGE_SIZE
        if page >= mapping.end_page:
            raise ValueError("access beyond end of mapping")
        self._fault((page,))
        touched = self._touched.get(page)
        if touched is None:
            touched = self._touched[page] = Page(
                frame_number=self._frames[page],
                address_space_id=self.asid,
                virtual_page=page,
            )
        return touched

    def touch_range(self, mapping: Mapping, kb: float) -> int:
        """Touch the first *kb* of *mapping*; returns pages faulted."""
        pages = min(
            mapping.page_count, int(kb * 1024 + PAGE_SIZE - 1) // PAGE_SIZE
        )
        start = mapping.start_page
        return self._fault(range(start, start + pages))

    def _fault(self, pages: Iterable[int]) -> int:
        """Fault in the pages of *pages* not yet resident, in order, with
        one bounds check; returns how many.

        If the budget runs out, the pages that got a frame stay resident
        and :class:`OutOfMemoryError` is raised, as faulting them one at a
        time would leave it.
        """
        frames = self._frames
        missing = [page for page in pages if page not in frames]
        allocated = self.physical.allocate_frames(len(missing))
        frames.update(zip(missing, allocated))
        if len(allocated) < len(missing):
            raise self.physical.exhausted()
        return len(missing)

    # -- accounting -----------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

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
