"""Tests for the memory model: the boot requirement and footprint search."""

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.variants import Variant, build_microvm, build_variant
from repro.mm.footprint import (
    BOOT_SLACK_KB,
    FootprintModel,
    OutOfMemoryError,
    PAGE_SIZE,
    USERSPACE_BASE_KB,
    measure_min_memory_mb,
)
from tests.oracles.footprint import replay_boot

#: Figure 8's Linux kernels, and the -tiny one whose -Os image is smaller.
_BUILDS = {
    "microvm": build_microvm,
    "lupine": lambda: build_variant(Variant.LUPINE),
    "lupine-general": lambda: build_variant(Variant.LUPINE_GENERAL),
    "lupine-tiny": lambda: build_variant(Variant.LUPINE_TINY),
}

#: App sizes in KiB: zero, sub-page, fractional and multi-MB.
_APP_KB = st.one_of(
    st.just(0.0),
    st.floats(0.0, 8.0),
    st.floats(0.0, 64 * 1024.0),
    st.integers(0, 64 * 1024).map(float),
)


def _stub_image(resident_kernel_kb):
    """An image with *resident_kernel_kb* of code and no option enabled."""
    return SimpleNamespace(
        resident_kernel_kb=resident_kernel_kb,
        config=SimpleNamespace(tree={}, enabled=frozenset()),
    )


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

    def test_binary_size_irrelevant_when_lazy(self, lupine_build):
        """The Figure 8 mechanism: huge binaries, tiny resident sets."""
        small = FootprintModel(lupine_build.image, app_resident_kb=512.0,
                               app_mapped_kb=4096.0)
        huge = replace(small, app_mapped_kb=300 * 1024.0)  # 300 MB mapped
        assert huge.required_pages() == small.required_pages()
        idle = replace(small, app_resident_kb=0.0)
        assert small.required_pages() - idle.required_pages() == 128

    def test_app_term_clamped_to_its_mapping(self, lupine_build):
        def app_pages(resident_kb, mapped_kb):
            model = FootprintModel(lupine_build.image, resident_kb, mapped_kb)
            idle = replace(model, app_resident_kb=0.0)
            return model.required_pages() - idle.required_pages()

        assert app_pages(1024.0, 4096.0) == 256
        assert app_pages(1024.0, 16.0) == 4
        assert app_pages(1024.0, 0.0) == 1  # a mapping spans a page

    def test_each_component_rounds_up_on_its_own(self):
        """No page holds parts of two components: half a KiB of kernel and
        half a KiB of app take a page each, and 5 KiB take two."""
        assert BOOT_SLACK_KB * 1024 % PAGE_SIZE == 0
        assert USERSPACE_BASE_KB * 1024 % PAGE_SIZE == 0
        fixed = int(BOOT_SLACK_KB + USERSPACE_BASE_KB) * 1024 // PAGE_SIZE

        def required(kernel_kb, app_kb):
            model = FootprintModel(_stub_image(kernel_kb),
                                   app_resident_kb=app_kb,
                                   app_mapped_kb=app_kb)
            return model.required_pages()

        assert required(0.0, 0.0) == fixed
        assert required(0.5, 0.5) == fixed + 2
        assert required(5.0, 0.0) == fixed + 2
        assert required(0.0, 5.0) == fixed + 2


class TestBootAttemptMatchesReplay:
    """``try_boot`` is the page-at-a-time boot attempt, summed: pages are
    taken from one budget in order, never freed, each range fresh, so
    every step fits exactly when the total does."""

    @settings(max_examples=120, deadline=None)
    @given(image=st.sampled_from(sorted(_BUILDS)), resident_kb=_APP_KB,
           mapped_kb=_APP_KB, data=st.data())
    def test_try_boot_equals_page_by_page_replay(self, image, resident_kb,
                                                 mapped_kb, data):
        model = FootprintModel(_BUILDS[image]().image,
                               app_resident_kb=resident_kb,
                               app_mapped_kb=mapped_kb)
        required = model.required_pages()
        # Whole-MB budgets from one MB below the requirement to one above.
        memory_mb = data.draw(st.integers(-(-(required - 256) // 256),
                                          (required + 256) // 256))
        assert model.try_boot(memory_mb) == replay_boot(model, memory_mb)

    @settings(max_examples=60, deadline=None)
    @given(image=st.sampled_from(sorted(_BUILDS)),
           slack_pages=st.integers(-2, 2),
           sub_page_kb=st.sampled_from([0.0, 0.5, 3.0]),
           clamped=st.booleans(), data=st.data())
    def test_try_boot_equals_replay_pages_from_the_threshold(
            self, image, slack_pages, sub_page_kb, clamped, data):
        """Apps sized so the requirement lands within two pages of a whole
        MB, where one page more or less changes the outcome."""
        image = _BUILDS[image]().image
        fixed = FootprintModel(image, 0.0, 0.0).required_pages()
        app_kb = 4.0 * ((-fixed) % 256 + 256 + slack_pages) - sub_page_kb
        if clamped:  # the mapping, not the resident set, bounds the app
            model = FootprintModel(image, app_resident_kb=app_kb + 1024.0,
                                   app_mapped_kb=app_kb)
        else:
            model = FootprintModel(image, app_resident_kb=app_kb,
                                   app_mapped_kb=app_kb + 1024.0)
        memory_mb = (-(-model.required_pages() // 256)
                     + data.draw(st.integers(-1, 1)))
        assert model.try_boot(memory_mb) == replay_boot(model, memory_mb)
