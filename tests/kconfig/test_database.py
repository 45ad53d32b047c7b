"""Tests for the Linux 4.0 option database model (paper-exact counts)."""

import hashlib

import pytest

from repro.kconfig.database import (
    DIRECTORY_TOTALS,
    LINUX_4_0_TOTAL_OPTIONS,
    base_option_names,
    build_linux_tree,
    curated_totals,
    microvm_option_names,
    removed_option_names,
    removed_options_by_category,
    removed_options_by_subcategory,
)
from repro.kml.patch import KmlPatch


def _option_fields_digest(tree):
    """SHA-256 over every option's model and cost fields, in tree order
    (the tree fingerprint covers only the resolution semantics)."""
    digest = hashlib.sha256()
    for option in tree:
        digest.update(
            f"{option.name}\x1f{option.option_type.value}\x1f"
            f"{option.directory}\x1f{option.category}\x1f"
            f"{option.size_kb!r}\x1f{option.boot_cost_us!r}\x1f"
            f"{option.mem_cost_kb!r}\x1f{option.synthetic}\n".encode("utf-8")
        )
    return digest.hexdigest()


class TestPaperCounts:
    def test_total_is_15953(self, tree):
        assert len(tree) == LINUX_4_0_TOTAL_OPTIONS == 15953

    def test_lupine_base_is_283(self):
        assert len(base_option_names()) == 283

    def test_removed_is_550(self):
        assert len(removed_option_names()) == 550

    def test_microvm_is_833(self):
        assert len(microvm_option_names()) == 833

    def test_category_split_311_89_150(self):
        by_category = removed_options_by_category()
        assert len(by_category["app"]) == 311
        assert len(by_category["mp"]) == 89
        assert len(by_category["hw"]) == 150

    def test_subcategory_counts_match_paper_text(self):
        by_sub = {k: len(v) for k, v in
                  removed_options_by_subcategory().items()}
        assert by_sub[("app", "net")] == 100        # "approximately 100"
        assert by_sub[("app", "fs")] == 35
        assert by_sub[("app", "compression")] == 20
        assert by_sub[("app", "crypto")] == 55
        assert by_sub[("app", "debug")] == 65       # "up to 65"
        assert by_sub[("app", "syscalls")] == 12    # Table 1
        assert by_sub[("mp", "cgroups-ns")] == 20   # "about 20"
        assert by_sub[("mp", "security-domain")] == 12
        assert by_sub[("hw", "power")] == 24

    def test_no_duplicate_names(self):
        names = microvm_option_names()
        assert len(names) == len(set(names))

    def test_directory_totals_sum(self):
        assert sum(DIRECTORY_TOTALS.values()) == 15953

    def test_drivers_dominate(self, tree):
        counts = tree.count_by_directory()
        assert counts["drivers"] > sum(
            v for k, v in counts.items() if k != "drivers"
        ) / 2


class TestTreeIntegrity:
    def test_no_undefined_references(self, tree):
        assert tree.undefined_references() == {}

    def test_every_curated_option_present(self, tree):
        for name in microvm_option_names():
            assert name in tree

    def test_costs_are_positive(self, tree):
        for name in microvm_option_names():
            option = tree[name]
            assert option.size_kb >= 0
            assert option.boot_cost_us >= 0
            assert option.mem_cost_kb >= 0

    def test_inet_is_heavyweight(self, tree):
        assert tree["INET"].size_kb > 500

    def test_synthetic_filler_marked(self, tree):
        synthetic = [o for o in tree if o.synthetic]
        assert len(synthetic) == 15953 - len(microvm_option_names()) - sum(
            1 for o in tree if o.category.startswith("ext:")
        )

    def test_filler_never_in_microvm(self, tree):
        microvm = set(microvm_option_names())
        for option in tree:
            if option.synthetic:
                assert option.name not in microvm

    def test_deterministic_rebuild(self):
        build_linux_tree.cache_clear()
        one = build_linux_tree()
        build_linux_tree.cache_clear()
        two = build_linux_tree()
        assert [o.name for o in one] == [o.name for o in two]
        assert [o.size_kb for o in one] == [o.size_kb for o in two]


class TestPatches:
    def test_pristine_tree_has_no_kml(self, tree):
        assert "KERNEL_MODE_LINUX" not in tree

    def test_kml_patch_adds_option(self, kml_tree):
        assert "KERNEL_MODE_LINUX" in kml_tree
        assert len(kml_tree) == 15953  # displaces one filler slot

    def test_kml_conflicts_with_paravirt(self, kml_tree):
        option = kml_tree["KERNEL_MODE_LINUX"]
        assert "PARAVIRT" in option.dependency_symbols()

    def test_unknown_patch_rejected(self):
        with pytest.raises(ValueError):
            build_linux_tree(patches=("rtlinux",))

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            build_linux_tree(version="5.0")

    def test_every_spelling_returns_one_tree(self):
        pristine = build_linux_tree()
        assert build_linux_tree("4.0") is pristine
        assert build_linux_tree(version="4.0", patches=()) is pristine
        assert build_linux_tree(patches=[]) is pristine
        kml = build_linux_tree(patches=("kml",))
        assert kml is not pristine
        assert build_linux_tree("4.0", ("kml",)) is kml
        assert build_linux_tree(version="4.0", patches=["kml", "kml"]) is kml
        assert KmlPatch().apply() is build_linux_tree(patches=("kml",))


class TestSharedOptionModel:
    """Both trees hold one set of option objects, built once per process."""

    def test_fingerprints_pinned(self, tree, kml_tree):
        assert tree.fingerprint() == "9636e0a958587917"
        assert kml_tree.fingerprint() == "c68e42671c65ae03"

    @pytest.mark.parametrize(("patches", "expected"), [
        ((), "893e8e3db8dfadb1d8441c15705fb74d"
             "21869e69cbf9db5edd9cde5f7331a8d1"),
        (("kml",), "b5258a203be4ca15f238d68eac278592"
                   "a587b78510ad4aeddddf44914aa37a63"),
    ])
    def test_option_fields_pinned(self, patches, expected):
        assert _option_fields_digest(build_linux_tree(patches=patches)) == (
            expected)

    def test_patched_tree_shares_the_pristine_options(self, tree, kml_tree):
        assert tree["NET_VENDOR_0000"] is kml_tree["NET_VENDOR_0000"]
        assert tree["INET"] is kml_tree["INET"]
        # KML displaces the last kernel filler option; every other
        # option is the pristine tree's own object, in the same order.
        last_filler = [option.name for option in tree.options_in("kernel")
                       if option.synthetic][-1]
        assert last_filler not in kml_tree
        pristine = [option for option in tree if option.name != last_filler]
        patched = [option for option in kml_tree
                   if option.name != "KERNEL_MODE_LINUX"]
        assert len(pristine) == len(patched) == 15952
        assert all(a is b for a, b in zip(pristine, patched))


class TestCuratedTotals:
    def test_summary(self):
        totals = curated_totals()
        assert totals == {"base": 283, "removed": 550, "microvm": 833}
