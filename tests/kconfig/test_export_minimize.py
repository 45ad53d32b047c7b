"""Tests for ``savedefconfig``-style request minimization."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kconfig.configs import lupine_base_config, microvm_config
from repro.kconfig.expr import parse_expr
from repro.kconfig.minimize import minimize_config
from repro.kconfig.model import ConfigOption, KconfigTree
from repro.kconfig.resolver import Resolver


class TestMinimize:
    def test_select_implied_options_dropped(self):
        tree = KconfigTree()
        tree.add(ConfigOption(name="A", selects=("B", "C")))
        tree.add(ConfigOption(name="B"))
        tree.add(ConfigOption(name="C"))
        config = Resolver(tree).resolve_names(["A"])
        assert minimize_config(config) == {"A"}

    def test_default_implied_options_dropped(self):
        tree = KconfigTree()
        tree.add(ConfigOption(name="A"))
        tree.add(ConfigOption(name="B", default=parse_expr("A")))
        config = Resolver(tree).resolve_names(["A", "B"])
        assert minimize_config(config) == {"A"}

    def test_explicitly_needed_options_kept(self):
        tree = KconfigTree()
        tree.add(ConfigOption(name="A"))
        tree.add(ConfigOption(name="B"))
        config = Resolver(tree).resolve_names(["A", "B"])
        assert minimize_config(config) == {"A", "B"}

    def test_minimized_lupine_base_reproduces_exactly(self, tree):
        config = lupine_base_config(tree)
        minimal = minimize_config(config)
        assert len(minimal) < len(config.enabled)
        resolved = Resolver(tree).resolve_names(sorted(minimal))
        assert resolved.enabled == config.enabled

    def test_minimized_microvm_reproduces_exactly(self, tree):
        config = microvm_config(tree)
        minimal = minimize_config(config)
        resolved = Resolver(tree).resolve_names(sorted(minimal))
        assert resolved.enabled == config.enabled


@st.composite
def _tree_with_implications(draw):
    names = [f"K{i}" for i in range(draw(st.integers(3, 7)))]
    tree = KconfigTree()
    for index, name in enumerate(names):
        earlier = names[:index]
        selects = tuple(
            n for n in earlier if draw(st.booleans()) and draw(st.booleans())
        )
        default = None
        if earlier and draw(st.booleans()):
            default = parse_expr(draw(st.sampled_from(earlier)))
        tree.add(ConfigOption(name=name, selects=selects, default=default))
    requested = sorted(draw(st.sets(st.sampled_from(names), min_size=1)))
    return tree, requested


class TestMinimizeProperties:
    @settings(max_examples=60, deadline=None)
    @given(_tree_with_implications())
    def test_minimize_always_reproduces(self, tree_and_request):
        tree, requested = tree_and_request
        config = Resolver(tree).resolve_names(requested)
        minimal = minimize_config(config)
        resolved = Resolver(tree).resolve_names(sorted(minimal))
        assert resolved.enabled == config.enabled

    @settings(max_examples=60, deadline=None)
    @given(_tree_with_implications())
    def test_minimal_is_subset_of_enabled(self, tree_and_request):
        tree, requested = tree_and_request
        config = Resolver(tree).resolve_names(requested)
        assert minimize_config(config) <= config.enabled
