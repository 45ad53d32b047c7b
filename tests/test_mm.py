"""Tests for the memory substrate: paging, OOM, footprint search."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mm.address_space import (
    AddressSpace,
    OutOfMemoryError,
    PAGE_SIZE,
    PhysicalMemory,
)
from repro.mm.footprint import measure_min_memory_mb


def _space(memory_mb=16):
    physical = PhysicalMemory(total_bytes=memory_mb * 1024 * 1024)
    return AddressSpace(asid=1, physical=physical), physical


class TestPhysicalMemory:
    def test_page_accounting(self):
        physical = PhysicalMemory(total_bytes=1024 * 1024)
        assert physical.total_pages == 256
        physical.allocate_frame()
        assert physical.allocated_pages == 1
        assert physical.free_pages == 255

    def test_exhaustion(self):
        physical = PhysicalMemory(total_bytes=2 * PAGE_SIZE)
        physical.allocate_frame()
        physical.allocate_frame()
        with pytest.raises(OutOfMemoryError):
            physical.allocate_frame()

    def test_reserve_kb_rounds_up(self):
        physical = PhysicalMemory(total_bytes=1024 * 1024)
        physical.reserve_kb(5.0)  # 5 KiB -> 2 pages
        assert physical.allocated_pages == 2

    @settings(max_examples=200, deadline=None)
    @given(total_pages=st.integers(0, 64),
           reservations=st.lists(st.floats(-8.0, 160.0), max_size=6))
    def test_reserve_kb_equals_page_by_page(self, total_pages, reservations):
        """The one-step reservation leaves the state and raises the error
        that allocating its frames one at a time does."""
        def page_by_page(physical, kb):
            for _ in range(int(kb * 1024 + PAGE_SIZE - 1) // PAGE_SIZE):
                physical.allocate_frame()

        def outcomes(reserve):
            physical = PhysicalMemory(total_bytes=total_pages * PAGE_SIZE)
            seen = []
            for kb in reservations:
                try:
                    reserve(physical, kb)
                    seen.append(("ok", physical.allocated_pages))
                except OutOfMemoryError as error:
                    seen.append((str(error), physical.allocated_pages))
            return seen

        assert (outcomes(PhysicalMemory.reserve_kb)
                == outcomes(page_by_page))

    def test_reserve_kb_that_does_not_fit_exhausts_then_raises(self):
        physical = PhysicalMemory(total_bytes=4 * PAGE_SIZE)
        physical.reserve_kb(4.0)
        with pytest.raises(OutOfMemoryError, match="4 pages exhausted"):
            physical.reserve_kb(16.0)
        assert (physical.allocated_pages, physical.free_pages) == (4, 0)

    @settings(max_examples=200, deadline=None)
    @given(total_pages=st.integers(0, 48),
           touches=st.lists(st.tuples(st.booleans(), st.integers(0, 2),
                                      st.floats(-8.0, 160.0)),
                            max_size=8))
    def test_touch_range_equals_page_by_page(self, total_pages, touches):
        """``touch_range`` and ``touch`` give each missing page the frame,
        and leave the state and error, that faulting the pages one at a
        time does.  A touch is ``(whole_range, mapping, kb)``."""
        def run(page_by_page):
            physical = PhysicalMemory(total_bytes=total_pages * PAGE_SIZE)
            space = AddressSpace(asid=1, physical=physical)
            mappings = [space.mmap(kb) for kb in (16.0, 100.0, 40.0)]
            frames = {}  # (mapping, page) -> frame, one page at a time
            seen = []
            for whole_range, index, kb in touches:
                mapping = mappings[index]
                offset_kb = min(max(kb, 0.0), 4.0 * (mapping.page_count - 1))
                if whole_range:
                    pages = range(min(mapping.page_count,
                                      int(kb * 1024 + PAGE_SIZE - 1)
                                      // PAGE_SIZE))
                else:
                    pages = [int(offset_kb * 1024) // PAGE_SIZE]
                try:
                    if page_by_page:
                        missing = [(index, page) for page in pages
                                   if (index, page) not in frames]
                        for key in missing:
                            frames[key] = physical.allocate_frame()
                        outcome = (len(missing) if whole_range
                                   else frames[index, pages[0]])
                    elif whole_range:
                        outcome = space.touch_range(mapping, kb)
                    else:
                        outcome = space.touch(mapping, offset_kb).frame_number
                except OutOfMemoryError as error:
                    outcome = str(error)
                seen.append((outcome, physical.allocated_pages))
            return seen, space, mappings, frames

        expected, _, _, frames = run(page_by_page=True)
        seen, space, mappings, _ = run(page_by_page=False)
        assert seen == expected
        assert space.resident_pages == len(frames)
        # Same resident set, same frames: touching a page that is not
        # resident would take a new frame (or raise).
        assert {(index, page): space.touch(mappings[index], 4.0 * page)
                .frame_number for index, page in frames} == frames

    def test_touch_range_that_does_not_fit_keeps_what_fits_then_raises(self):
        physical = PhysicalMemory(total_bytes=8 * PAGE_SIZE)
        physical.reserve_kb(8.0)
        space = AddressSpace(asid=1, physical=physical)
        mapping = space.mmap(64)
        space.touch(mapping, offset_kb=4.0)  # page 1: frame 2
        with pytest.raises(OutOfMemoryError, match="8 pages exhausted"):
            space.touch_range(mapping, 64)
        assert (physical.allocated_pages, space.resident_pages) == (8, 6)
        # Pages 0, 2, 3, 4, 5 took frames 3..7 in page order.
        assert [space.touch(mapping, 4.0 * page).frame_number
                for page in range(6)] == [3, 2, 4, 5, 6, 7]


class TestDemandPaging:
    def test_lazy_mapping_allocates_nothing(self):
        space, physical = _space()
        space.mmap(1024, name="app")
        assert physical.allocated_pages == 0
        assert space.resident_pages == 0

    def test_eager_mapping_allocates_now(self):
        space, physical = _space()
        space.mmap(64, name="stack", eager=True)
        assert physical.allocated_pages == 16

    def test_touch_faults_one_page(self):
        space, physical = _space()
        mapping = space.mmap(1024)
        space.touch(mapping, offset_kb=8)
        assert space.resident_pages == 1

    def test_touch_same_page_idempotent(self):
        space, physical = _space()
        mapping = space.mmap(64)
        first = space.touch(mapping, 0)
        second = space.touch(mapping, 1)  # same 4 KiB page
        assert first is second
        assert physical.allocated_pages == 1

    def test_touch_beyond_mapping_rejected(self):
        space, _ = _space()
        mapping = space.mmap(4)
        with pytest.raises(ValueError):
            space.touch(mapping, offset_kb=64)

    def test_touch_range(self):
        space, _ = _space()
        mapping = space.mmap(1024)
        assert space.touch_range(mapping, 100) == 25
        assert space.touch_range(mapping, 100) == 0  # already resident
        assert space.resident_kb == 100

    def test_touch_range_clamped_to_mapping(self):
        space, _ = _space()
        mapping = space.mmap(16)
        assert space.touch_range(mapping, 1024) == 4

    def test_oom_when_budget_exhausted(self):
        space, _ = _space(memory_mb=1)
        mapping = space.mmap(4096)
        with pytest.raises(OutOfMemoryError):
            space.touch_range(mapping, 4096)

    def test_binary_size_irrelevant_when_lazy(self):
        """The Figure 8 mechanism: huge binaries, tiny resident sets."""
        space, physical = _space()
        huge = space.mmap(300 * 1024, name="elasticsearch")  # 300 MB mapped
        space.touch_range(huge, 512)  # 512 KiB actually used
        assert physical.allocated_pages == 128

    def test_mapping_lookup(self):
        space, _ = _space()
        space.mmap(64, name="libc")
        assert space.find_mapping("libc") is not None
        assert space.find_mapping("ghost") is None
        assert space.mapped_kb >= 64


class TestFootprintSearch:
    def test_finds_exact_threshold(self):
        threshold = 37
        searched = measure_min_memory_mb(
            lambda mb: mb >= threshold, upper_mb=128
        )
        assert searched == threshold

    def test_threshold_at_bounds(self):
        assert measure_min_memory_mb(lambda mb: mb >= 1, upper_mb=64) == 1
        assert measure_min_memory_mb(lambda mb: mb >= 64, upper_mb=64) == 64

    def test_unbootable_guest_raises(self):
        with pytest.raises(OutOfMemoryError):
            measure_min_memory_mb(lambda mb: False, upper_mb=32)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=512))
    def test_search_matches_linear_scan(self, threshold):
        found = measure_min_memory_mb(
            lambda mb: mb >= threshold, upper_mb=512
        )
        assert found == threshold


class TestFootprintModel:
    def test_microvm_footprint_near_29mb(self, microvm_build):
        from repro.mm.footprint import FootprintModel

        model = FootprintModel(image=microvm_build.image)
        footprint = measure_min_memory_mb(model.try_boot)
        assert 26 <= footprint <= 32  # paper: ~29 MB

    def test_lupine_footprint_near_21mb(self, lupine_build):
        from repro.mm.footprint import FootprintModel

        model = FootprintModel(image=lupine_build.image)
        footprint = measure_min_memory_mb(model.try_boot)
        assert 18 <= footprint <= 24  # paper: ~21 MB

    def test_smaller_budget_than_requirement_fails(self, lupine_build):
        from repro.mm.footprint import FootprintModel

        model = FootprintModel(image=lupine_build.image)
        assert not model.try_boot(4)
        assert model.try_boot(256)
