"""Tests for Kconfig choice groups (mutually exclusive options)."""

import pytest

from repro.kconfig.expr import Tristate
from repro.kconfig.model import (
    ChoiceGroup,
    ConfigOption,
    DuplicateOptionError,
    KconfigTree,
    UnknownOptionError,
)
from repro.kconfig.resolver import Resolver


def _tree_with_choice():
    tree = KconfigTree()
    for name in ("HZ_100", "HZ_250", "HZ_1000"):
        tree.add(ConfigOption(name=name))
    tree.add_choice(ChoiceGroup(
        name="hz", members=("HZ_100", "HZ_250", "HZ_1000"),
        default_member="HZ_250",
    ))
    return tree


class TestChoiceModel:
    def test_needs_two_members(self):
        with pytest.raises(ValueError, match="two members"):
            ChoiceGroup(name="x", members=("A",))

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ChoiceGroup(name="x", members=("A", "A"))

    def test_default_must_be_member(self):
        with pytest.raises(ValueError, match="not a member"):
            ChoiceGroup(name="x", members=("A", "B"), default_member="C")

    def test_members_must_exist_in_tree(self):
        tree = KconfigTree()
        tree.add(ConfigOption(name="A"))
        with pytest.raises(UnknownOptionError):
            tree.add_choice(ChoiceGroup(name="x", members=("A", "GHOST")))

    def test_member_in_one_choice_only(self):
        tree = _tree_with_choice()
        tree.add(ConfigOption(name="OTHER"))
        with pytest.raises(ValueError, match="already belongs"):
            tree.add_choice(
                ChoiceGroup(name="y", members=("HZ_100", "OTHER"))
            )

    def test_duplicate_choice_name(self):
        tree = _tree_with_choice()
        tree.add(ConfigOption(name="A"))
        tree.add(ConfigOption(name="B"))
        with pytest.raises(DuplicateOptionError):
            tree.add_choice(ChoiceGroup(name="hz", members=("A", "B")))

    def test_choice_of(self):
        tree = _tree_with_choice()
        assert tree.choice_of("HZ_100").name == "hz"
        tree.add(ConfigOption(name="FREE"))
        assert tree.choice_of("FREE") is None


class TestChoiceResolution:
    def test_tie_break_follows_request_insertion_order(self):
        """With several requested members, the first *requested* wins.

        Request mappings preserve insertion order, so the tie-break is
        the caller's ordering, not the choice's member declaration order.
        """
        tree = _tree_with_choice()
        first = Resolver(tree).resolve(
            {"HZ_1000": Tristate.YES, "HZ_100": Tristate.YES}
        )
        assert "HZ_1000" in first
        assert "HZ_100" not in first
        assert first.demoted["HZ_100"] == "choice hz: HZ_1000 wins"

        flipped = Resolver(tree).resolve(
            {"HZ_100": Tristate.YES, "HZ_1000": Tristate.YES}
        )
        assert "HZ_100" in flipped
        assert "HZ_1000" not in flipped
        assert flipped.demoted["HZ_1000"] == "choice hz: HZ_100 wins"

    def test_member_requested_off_cannot_win(self):
        tree = _tree_with_choice()
        config = Resolver(tree).resolve(
            {"HZ_100": Tristate.NO, "HZ_1000": Tristate.YES}
        )
        assert "HZ_1000" in config
        assert "HZ_100" not in config

    def test_default_applies_when_nothing_requested(self):
        config = Resolver(_tree_with_choice()).resolve_names([])
        assert "HZ_250" in config
        assert "HZ_100" not in config

    def test_requested_member_wins_over_default(self):
        config = Resolver(_tree_with_choice()).resolve_names(["HZ_1000"])
        assert "HZ_1000" in config
        assert "HZ_250" not in config

    def test_exclusivity_enforced(self):
        config = Resolver(_tree_with_choice()).resolve_names(
            ["HZ_100", "HZ_1000"]
        )
        enabled = {m for m in ("HZ_100", "HZ_250", "HZ_1000") if m in config}
        assert len(enabled) == 1
        assert "HZ_100" in enabled  # first requested wins
        demoted_reason = config.demoted["HZ_1000"]
        assert "choice" in demoted_reason

    def test_real_tree_hz_default(self, tree):
        from repro.kconfig.database import base_option_names

        names = [n for n in base_option_names() if n != "HZ_250"]
        config = Resolver(tree).resolve_names(names)
        assert "HZ_250" in config
        assert len(config.enabled) == 283

    def test_real_tree_exactly_one_hz(self, tree, microvm):
        hz_enabled = [n for n in ("HZ_100", "HZ_250", "HZ_1000")
                      if n in microvm]
        assert hz_enabled == ["HZ_250"]
