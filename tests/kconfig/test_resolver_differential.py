"""Differential tests: the worklist engine against the full-sweep oracle.

The worklist resolver earns its keep only if it is *indistinguishable*
from the original sweep (``tests/oracles/sweep.py``).  These tests
resolve the same request sets through both and require identical
``values``, ``demoted``,
``select_violations`` and ``requested`` -- on every curated configuration
the paper uses, on warm-start derivations, and on several hundred
seeded-random trees exercising tristates, expression operators, selects,
defaults and choice groups.
"""

import random

import pytest

from repro.kconfig.expr import Tristate, parse_expr
from repro.kconfig.model import ChoiceGroup, ConfigOption, KconfigTree, OptionType
from repro.kconfig.resolver import ResolutionError, Resolver
from tests.oracles.sweep import resolve_sweep

Y, M, N = Tristate.YES, Tristate.MODULE, Tristate.NO

#: (trees, request sets per tree) -- 40 x 6 = 240 randomized request sets,
#: above the 200 the acceptance criteria require.
RANDOM_TREES = 40
REQUESTS_PER_TREE = 6


def _assert_identical(tree, requested, label):
    """Resolve *requested* through both engines and compare everything."""
    worklist = Resolver(tree)
    try:
        expected = resolve_sweep(tree, requested, name=label)
    except ResolutionError:
        with pytest.raises(ResolutionError):
            worklist.resolve(requested, name=label, use_cache=False)
        return None
    actual = worklist.resolve(requested, name=label, use_cache=False)
    assert actual.values == expected.values, label
    assert actual.demoted == expected.demoted, label
    assert actual.select_violations == expected.select_violations, label
    assert actual.requested == expected.requested, label
    return actual


def _random_expr(rng, symbols, depth=0):
    """A random dependency/default expression over *symbols*."""
    roll = rng.random()
    if depth >= 2 or roll < 0.45 or not symbols:
        leaf = rng.choice(symbols) if symbols and rng.random() < 0.85 else (
            rng.choice(["y", "m", "n"])
        )
        if symbols and rng.random() < 0.15:
            other = rng.choice([rng.choice(symbols), "y", "m", "n"])
            op = rng.choice(["=", "!="])
            return f"{leaf}{op}{other}"
        return leaf
    if roll < 0.60:
        return f"!({_random_expr(rng, symbols, depth + 1)})"
    op = rng.choice(["&&", "||"])
    return (
        f"({_random_expr(rng, symbols, depth + 1)}) {op} "
        f"({_random_expr(rng, symbols, depth + 1)})"
    )


def _random_tree(rng):
    """A random acyclic tree: mixed types, selects, defaults, one choice.

    Dependencies/defaults only reference earlier options, and select
    targets are never choice members, which keeps the fixpoint convergent
    (the property the curated database also has).
    """
    count = rng.randint(6, 18)
    names = [f"OPT{i}" for i in range(count)]
    choice_members = ()
    if count >= 6 and rng.random() < 0.6:
        start = rng.randrange(0, count - 3)
        size = rng.randint(2, 3)
        choice_members = tuple(names[start:start + size])
    tree = KconfigTree()
    for index, name in enumerate(names):
        earlier = names[:index]
        selectable = [n for n in earlier if n not in choice_members]
        option_type = (
            OptionType.BOOL
            if name in choice_members or rng.random() < 0.7
            else OptionType.TRISTATE
        )
        depends = (
            _random_expr(rng, earlier)
            if earlier and rng.random() < 0.5 else None
        )
        selects = tuple(
            rng.sample(selectable, rng.randint(1, min(2, len(selectable))))
        ) if selectable and rng.random() < 0.3 else ()
        default = (
            _random_expr(rng, earlier)
            if rng.random() < 0.4 else None
        )
        tree.add(ConfigOption(
            name=name,
            option_type=option_type,
            depends_on=parse_expr(depends) if depends else parse_expr("y"),
            selects=selects,
            default=parse_expr(default) if default else None,
        ))
    if choice_members:
        tree.add_choice(ChoiceGroup(
            name="grp",
            members=choice_members,
            default_member=(
                rng.choice(choice_members) if rng.random() < 0.8 else None
            ),
        ))
    return tree, names


def _random_request(rng, names):
    chosen = rng.sample(names, rng.randint(0, min(len(names), 6)))
    return {
        name: rng.choice([Y, Y, Y, M, N])
        for name in chosen
    }


class TestRandomizedDifferential:
    def test_seeded_random_request_sets(self):
        rng = random.Random(0x1ED_BEEF)
        checked = 0
        for _ in range(RANDOM_TREES):
            tree, names = _random_tree(rng)
            for _ in range(REQUESTS_PER_TREE):
                requested = _random_request(rng, names)
                _assert_identical(tree, requested, f"rand-{checked}")
                checked += 1
        assert checked >= 200

    def test_empty_and_full_requests(self):
        rng = random.Random(2020)
        for index in range(10):
            tree, names = _random_tree(rng)
            _assert_identical(tree, {}, f"empty-{index}")
            _assert_identical(
                tree, {name: Y for name in names}, f"full-{index}"
            )


class TestCuratedDifferential:
    """Both engines agree on every configuration the paper builds."""

    def test_named_configs(self, tree):
        from repro.kconfig.configs import TINYCONFIG_NAMES
        from repro.kconfig.database import (
            base_option_names,
            microvm_option_names,
        )

        defconfig_names = list(microvm_option_names())
        for option in tree.options_in("drivers"):
            if option.synthetic and int(
                option.name.rsplit("_", 1)[1]
            ) % 4 == 0:
                defconfig_names.append(option.name)

        for label, names in (
            ("microvm", microvm_option_names()),
            ("lupine-base", base_option_names()),
            ("tinyconfig", list(TINYCONFIG_NAMES)),
            ("defconfig", defconfig_names),
        ):
            _assert_identical(tree, {n: Y for n in names}, label)

    def test_all_twenty_app_configs(self, tree):
        from repro.apps.registry import TOP20_APPS
        from repro.core.specialization import app_config_names

        for app in TOP20_APPS:
            _assert_identical(
                tree,
                {n: Y for n in app_config_names(app)},
                f"lupine-{app.name}",
            )

    def test_kml_tree_variants(self, kml_tree):
        from repro.kconfig.database import base_option_names

        names = [
            n for n in base_option_names()
            if n not in ("PARAVIRT", "PARAVIRT_CLOCK", "KVM_GUEST")
        ] + ["KERNEL_MODE_LINUX"]
        _assert_identical(kml_tree, {n: Y for n in names}, "lupine-kml")


class TestWarmStartEqualsCold:
    """``resolve_from(lupine-base, ...)`` must equal a cold resolution."""

    @pytest.fixture(scope="class")
    def base(self, tree):
        from repro.kconfig.database import base_option_names

        return Resolver(tree).resolve_names(
            base_option_names(), name="lupine-base", use_cache=False
        )

    def _assert_warm_equals_cold(self, tree, base, names, label):
        resolver = Resolver(tree)
        cold = resolver.resolve_names(names, name=label, use_cache=False)
        warm = resolver.resolve_names_from(
            base, names, name=label, use_cache=False
        )
        assert warm.values == cold.values, label
        assert warm.demoted == cold.demoted, label
        assert warm.select_violations == cold.select_violations, label
        assert warm.requested == cold.requested, label

    def test_app_variants(self, tree, base):
        from repro.apps.registry import TOP20_APPS
        from repro.core.specialization import app_config_names

        for app in TOP20_APPS:
            self._assert_warm_equals_cold(
                tree, base, app_config_names(app), f"lupine-{app.name}"
            )

    def test_tiny_and_general_variants(self, tree, base):
        from repro.core.specialization import lupine_general_names
        from repro.core.variants import TINY_DISABLED, TINY_ENABLED

        tiny_names = [
            n for n in base.requested if n not in set(TINY_DISABLED)
        ] + list(TINY_ENABLED)
        self._assert_warm_equals_cold(tree, base, tiny_names, "lupine-tiny")
        self._assert_warm_equals_cold(
            tree, base, lupine_general_names(), "lupine-general"
        )

    def test_pin_removal(self, tree, base):
        """Dropping requests warm must match resolving the subset cold."""
        names = sorted(base.requested)[:-40]
        self._assert_warm_equals_cold(tree, base, names, "base-shrunk")

    def test_random_trees_random_deltas(self):
        """Warm derivation equals cold on random trees and request pairs.

        Exercises the trajectory-replay machinery: churned inputs of the
        influence cone, select re-forcing from outside the cone, and
        choice re-arbitration on member-pin reorderings.  The churned
        sets must match too, so warm results are themselves valid bases.
        """
        rng = random.Random(0xC0FFEE)
        checked = 0
        while checked < 120:
            tree, names = _random_tree(rng)
            resolver = Resolver(tree)
            try:
                base = resolver.resolve(
                    _random_request(rng, names), use_cache=False
                )
            except ResolutionError:
                continue
            for _ in range(4):
                requested = _random_request(rng, names)
                try:
                    cold = resolver.resolve(requested, use_cache=False)
                except ResolutionError:
                    continue
                warm = resolver.resolve_from(
                    base, requested, use_cache=False
                )
                assert warm.values == cold.values
                assert warm.demoted == cold.demoted
                assert warm.select_violations == cold.select_violations
                assert warm.requested == cold.requested
                assert warm.churned == cold.churned
                checked += 1

    def test_random_deltas_from_base(self, tree, base):
        from repro.kconfig.database import base_option_names, removed_option_names

        rng = random.Random(7)
        base_names = base_option_names()
        extras = removed_option_names()
        for index in range(8):
            names = [
                n for n in base_names if rng.random() > 0.05
            ] + rng.sample(extras, rng.randint(0, 10))
            self._assert_warm_equals_cold(
                tree, base, names, f"delta-{index}"
            )
