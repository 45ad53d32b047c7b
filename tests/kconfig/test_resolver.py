"""Tests for olddefconfig-style resolution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.kconfig.expr import Tristate, parse_expr
from repro.kconfig.model import (
    ConfigOption,
    KconfigTree,
    OptionType,
    UnknownOptionError,
)
from repro.kconfig.resolver import Resolver, enabled_closure
from tests.oracles.sweep import resolve_sweep

Y, M, N = Tristate.YES, Tristate.MODULE, Tristate.NO


def _tree(*options):
    tree = KconfigTree()
    tree.add_all(options)
    return tree


def _opt(name, depends=None, selects=(), default=None,
         option_type=OptionType.BOOL):
    return ConfigOption(
        name=name,
        option_type=option_type,
        depends_on=parse_expr(depends) if depends else parse_expr("y"),
        selects=tuple(selects),
        default=parse_expr(default) if default else None,
    )


def _both_engines(tree, names):
    """``(engine, config)`` for the shipped resolver and the sweep oracle."""
    requested = {name: Y for name in names}
    return [("worklist", Resolver(tree).resolve(requested)),
            ("sweep", resolve_sweep(tree, requested))]


class TestBasicResolution:
    def test_simple_enable(self):
        tree = _tree(_opt("A"))
        config = Resolver(tree).resolve_names(["A"])
        assert "A" in config
        assert config.value("A") is Y

    def test_unrequested_stays_off(self):
        tree = _tree(_opt("A"), _opt("B"))
        config = Resolver(tree).resolve_names(["A"])
        assert "B" not in config

    def test_unknown_request_strict(self):
        tree = _tree(_opt("A"))
        with pytest.raises(UnknownOptionError):
            Resolver(tree).resolve_names(["GHOST"])

    def test_unknown_request_lenient(self):
        tree = _tree(_opt("A"))
        config = Resolver(tree, strict=False).resolve_names(["A", "GHOST"])
        assert config.enabled == {"A"}

    def test_named_config(self):
        tree = _tree(_opt("A"))
        config = Resolver(tree).resolve_names(["A"], name="mycfg")
        assert config.name == "mycfg"
        assert config.with_name("other").name == "other"


class TestDependencies:
    def test_unmet_dependency_demotes(self):
        tree = _tree(_opt("A"), _opt("B", depends="A"))
        config = Resolver(tree).resolve_names(["B"])
        assert "B" not in config
        assert "B" in config.demoted

    def test_met_dependency_keeps(self):
        tree = _tree(_opt("A"), _opt("B", depends="A"))
        config = Resolver(tree).resolve_names(["A", "B"])
        assert config.enabled == {"A", "B"}

    def test_transitive_demotion(self):
        tree = _tree(_opt("A"), _opt("B", depends="A"), _opt("C", depends="B"))
        config = Resolver(tree).resolve_names(["B", "C"])
        assert config.enabled == set()
        assert set(config.demoted) == {"B", "C"}

    def test_negative_dependency(self):
        tree = _tree(_opt("A"), _opt("B", depends="!A"))
        config = Resolver(tree).resolve_names(["A", "B"])
        assert "B" not in config
        config = Resolver(tree).resolve_names(["B"])
        assert "B" in config

    def test_tristate_visibility_clamps_to_module(self):
        tree = _tree(
            _opt("A", option_type=OptionType.TRISTATE),
            _opt("B", depends="A", option_type=OptionType.TRISTATE),
        )
        config = Resolver(tree).resolve({"A": M, "B": Y})
        assert config.value("B") is M


class TestSelects:
    def test_select_forces_target(self):
        tree = _tree(_opt("A", selects=["B"]), _opt("B"))
        config = Resolver(tree).resolve_names(["A"])
        assert "B" in config

    def test_select_chain(self):
        tree = _tree(_opt("A", selects=["B"]), _opt("B", selects=["C"]),
                     _opt("C"))
        config = Resolver(tree).resolve_names(["A"])
        assert config.enabled == {"A", "B", "C"}

    def test_select_violating_dependency_recorded(self):
        tree = _tree(_opt("A", selects=["B"]), _opt("B", depends="C"),
                     _opt("C"))
        config = Resolver(tree).resolve_names(["A"])
        assert "B" in config  # select wins, as in kconfig
        assert ("A", "B") in config.select_violations

    def test_select_of_bool_from_module_is_yes(self):
        tree = _tree(
            _opt("A", option_type=OptionType.TRISTATE, selects=["B"]),
            _opt("B"),
        )
        config = Resolver(tree).resolve({"A": M})
        assert config.value("B") is Y


class TestDefaults:
    def test_default_applies_when_unrequested(self):
        tree = _tree(_opt("A", default="y"))
        config = Resolver(tree).resolve_names([])
        assert "A" in config

    def test_explicit_request_overrides_default(self):
        tree = _tree(_opt("A", default="y"))
        config = Resolver(tree).resolve({"A": N})
        assert "A" not in config

    def test_default_respects_dependencies(self):
        tree = _tree(_opt("GATE"), _opt("A", depends="GATE", default="y"))
        config = Resolver(tree).resolve_names([])
        assert "A" not in config
        config = Resolver(tree).resolve_names(["GATE"])
        assert "A" in config

    def test_default_tracks_other_symbol(self):
        tree = _tree(_opt("A"), _opt("B", default="A"))
        config = Resolver(tree).resolve_names(["A"])
        assert "B" in config


class TestDemotionRecords:
    """The ``demoted`` map must only name options that end up off."""

    def test_reenabled_by_default_drops_stale_record(self):
        """An option demoted early and re-enabled by its default later.

        Tree-order construction: D is demoted in iteration 1 (X defaults
        on), T (depends on D) is demoted next; a select chain then forces
        D back on, and T's own default re-fires in a later iteration.
        Selects pop their target's stale record, but default-driven
        re-enables did not -- T used to end up enabled *and* in
        ``demoted``.
        """
        tree = _tree(
            _opt("D", depends="!X"),
            _opt("T", depends="D", default="y"),
            _opt("X", default="y"),
            _opt("W", default="V"),
            _opt("V", default="y"),
            _opt("S", default="W", selects=["D"]),
        )
        for engine, config in _both_engines(tree, ["D"]):
            assert "T" in config, engine
            # Everything ends up enabled (D via S's select, T via its
            # default), so no demotion record may survive.
            assert config.demoted == {}, engine
            assert ("S", "D") in config.select_violations

    def test_select_source_demoted_later_rerecords_target(self):
        """A select's pop of ``demoted[target]`` must not stick once the
        selecting source itself is demoted and the target's unmet
        dependency demotes it again."""
        tree = _tree(
            _opt("A", depends="!X", selects=["B"]),
            _opt("B", depends="C"),
            _opt("C"),
            _opt("X", default="y"),
        )
        for engine, config in _both_engines(tree, ["A"]):
            assert "A" not in config, engine
            assert "B" not in config, engine
            assert config.demoted.get("B") == "C", engine

    def test_demoted_names_only_disabled_options(self):
        tree = _tree(_opt("A"), _opt("B", depends="A"))
        config = Resolver(tree).resolve_names(["B"])
        for name in config.demoted:
            assert config.value(name) is N


class TestResolvedConfig:
    def test_builtin_vs_modules(self):
        tree = _tree(_opt("A"), _opt("B", option_type=OptionType.TRISTATE))
        config = Resolver(tree).resolve({"A": Y, "B": M})
        assert config.builtin == {"A"}
        assert config.modules == {"B"}
        assert config.enabled == {"A", "B"}

    @pytest.mark.parametrize("order", [
        ("builtin", "modules", "enabled"),
        ("enabled", "modules", "builtin"),
        ("modules", "enabled", "builtin"),
    ])
    def test_set_memos_are_independent_of_read_order(self, order):
        tree = _tree(_opt("A"), _opt("B", option_type=OptionType.TRISTATE))
        config = Resolver(tree).resolve({"A": Y, "B": M})
        expected = {"builtin": {"A"}, "modules": {"B"},
                    "enabled": {"A", "B"}}
        # The sets are kept on the config after the first read, each
        # under its own memo, whichever is read first.
        first = {attr: getattr(config, attr) for attr in order}
        for attr in order:
            assert first[attr] == expected[attr]
            assert getattr(config, attr) is first[attr]

    def test_sets_select_by_identity(self, tree, microvm, lupine_base,
                                     lupine_build, nokml_build,
                                     general_build):
        """``enabled``/``builtin``/``modules`` select exactly the names a
        per-value ``is not NO`` / ``is YES`` / ``is MODULE`` test does."""
        from repro.apps.registry import TOP20_APPS
        from repro.core.specialization import app_config
        from repro.kconfig.configs import defconfig, tinyconfig
        from repro.kconfig.resolver import ResolvedConfig

        hand_built = ResolvedConfig(
            tree=_tree(*(_opt(name, option_type=OptionType.TRISTATE)
                         for name in "ABCDE")),
            # An int equal to NO is not NO: identity, not equality.
            values={"A": Y, "B": N, "C": M, "D": 0, "E": Y},
            requested={}, demoted={}, select_violations=(),
        )
        configs = [microvm, lupine_base, tinyconfig(tree), defconfig(tree),
                   lupine_build.config, nokml_build.config,
                   general_build.config, hand_built]
        configs += [app_config(app, tree) for app in TOP20_APPS]
        for config in configs:
            items = config.values.items()
            assert config.enabled == {n for n, v in items if v is not N}
            assert config.builtin == {n for n, v in items if v is Y}
            assert config.modules == {n for n, v in items if v is M}
        assert (hand_built.enabled, hand_built.builtin, hand_built.modules) == (
            {"A", "C", "D", "E"}, {"A", "E"}, {"C"})

    def test_bool_request_module_clamps_to_yes(self):
        tree = _tree(_opt("A"))
        config = Resolver(tree).resolve({"A": M})
        assert config.value("A") is Y

    def test_diff(self):
        tree = _tree(_opt("A"), _opt("B"), _opt("C"))
        one = Resolver(tree).resolve_names(["A", "B"])
        two = Resolver(tree).resolve_names(["B", "C"])
        only_one, only_two = one.diff(two)
        assert only_one == {"A"}
        assert only_two == {"C"}

    def test_len_counts_enabled(self):
        tree = _tree(_opt("A"), _opt("B"))
        assert len(Resolver(tree).resolve_names(["A"])) == 1

    def test_options_in_tree_order(self):
        tree = _tree(_opt("B"), _opt("A"))
        config = Resolver(tree).resolve_names(["A", "B"])
        assert [o.name for o in config.options()] == ["B", "A"]


class TestEnabledClosure:
    def test_follows_selects(self):
        tree = _tree(_opt("A", selects=["B"]), _opt("B", selects=["C"]),
                     _opt("C"), _opt("D"))
        assert enabled_closure(tree, ["A"]) == {"A", "B", "C"}

    def test_handles_cycles(self):
        tree = _tree(_opt("A", selects=["B"]), _opt("B", selects=["A"]))
        assert enabled_closure(tree, ["A"]) == {"A", "B"}


@st.composite
def _random_tree_and_request(draw):
    """Random small trees with acyclic dependencies + random requests."""
    names = [f"OPT{i}" for i in range(draw(st.integers(2, 8)))]
    options = []
    for index, name in enumerate(names):
        depends = None
        earlier = names[:index]
        if earlier and draw(st.booleans()):
            depends = draw(st.sampled_from(earlier))
            if draw(st.booleans()):
                depends = f"!{depends}"
        selects = []
        if earlier and draw(st.booleans()):
            selects.append(draw(st.sampled_from(earlier)))
        options.append(_opt(name, depends=depends, selects=selects))
    tree = _tree(*options)
    requested = draw(st.sets(st.sampled_from(names)))
    return tree, sorted(requested)


class TestResolverProperties:
    @settings(max_examples=60, deadline=None)
    @given(_random_tree_and_request())
    def test_resolution_is_consistent(self, tree_and_request):
        """Every enabled option has satisfied deps or a recorded violation."""
        tree, requested = tree_and_request
        config = Resolver(tree).resolve_names(requested)
        violated = {target for _, target in config.select_violations}
        for name in config.enabled:
            option = tree[name]
            visible = option.depends_on.evaluate(config.values)
            assert visible is not N or name in violated

    @settings(max_examples=60, deadline=None)
    @given(_random_tree_and_request())
    def test_resolution_is_idempotent(self, tree_and_request):
        """Re-resolving an already-resolved config changes nothing."""
        tree, requested = tree_and_request
        first = Resolver(tree).resolve_names(requested)
        second = Resolver(tree).resolve(
            {name: first.value(name) for name in first.enabled}
        )
        assert second.enabled == first.enabled

    @settings(max_examples=60, deadline=None)
    @given(_random_tree_and_request())
    def test_selects_are_honoured(self, tree_and_request):
        tree, requested = tree_and_request
        config = Resolver(tree).resolve_names(requested)
        for name in config.enabled:
            for target in tree[name].selects:
                assert target in config
