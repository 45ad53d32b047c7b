"""Unit tests for the incremental-resolution machinery.

Covers the pieces under the worklist engine: compiled expressions, the
per-tree :class:`ResolutionIndex`, the process-wide resolution cache,
warm-start deltas, and the work counters the acceptance criteria gate.
"""

import itertools
import json
import pathlib

import pytest

from repro.kconfig.bench import check_result
from repro.kconfig.expr import Tristate, compile_expr, parse_expr
from repro.kconfig.index import ResolutionIndex
from repro.kconfig.model import (
    ChoiceGroup,
    ConfigOption,
    KconfigTree,
    OptionType,
)
from repro.kconfig.rescache import RESOLUTION_CACHE, ResolutionCache
from repro.kconfig.resolver import Resolver
from repro.observe import METRICS

Y, M, N = Tristate.YES, Tristate.MODULE, Tristate.NO

BENCH_RESOLVE_BASELINE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "baseline" / "BENCH_resolve.json"
)


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


class TestCompiledExpressions:
    EXPRS = (
        "y", "m", "n", "A", "!A", "A && B", "A || B", "!(A && B)",
        "A=B", "A!=B", "A=y", "A!=m", "(A || !B) && (B=m || !A)",
        "!!A", "A && y", "A && n", "A || y", "A || n",
    )

    def test_matches_ast_evaluation_exhaustively(self):
        values = (Y, M, N)
        for text in self.EXPRS:
            expr = parse_expr(text)
            compiled = compile_expr(expr)
            for a, b in itertools.product(values, values):
                env = {"A": a, "B": b}
                assert compiled(env) is expr.evaluate(env), (text, a, b)

    def test_missing_symbols_default_to_no(self):
        compiled = compile_expr(parse_expr("A || B=n"))
        assert compiled({}) is Y  # B=n holds when B is absent


class TestResolutionIndex:
    def test_reverse_edges(self):
        tree = _tree(
            _opt("A"),
            _opt("B", depends="A"),
            _opt("C", default="A", selects=["A"]),
        )
        index = tree.resolution_index()
        a, b, c = (index.pos_of[n] for n in "ABC")
        assert b in index.rev_dep[a]
        assert c in index.rev_def[a]
        assert c in index.rev_sel[a]
        assert index.selects_of[c] == (a,)
        assert index.dep_fn[a] is None  # constant-y deps compile away

    def test_rebuilt_after_tree_grows(self):
        tree = _tree(_opt("A"))
        first = tree.resolution_index()
        tree.add(_opt("B", depends="A"))
        second = tree.resolution_index()
        assert second is not first
        assert "B" in second.pos_of
        assert tree.resolution_index() is second

    def test_fingerprint_tracks_content(self):
        one = _tree(_opt("A"), _opt("B", depends="A"))
        same = _tree(_opt("A"), _opt("B", depends="A"))
        other = _tree(_opt("A"), _opt("B", depends="!A"))
        assert one.fingerprint() == same.fingerprint()
        assert one.fingerprint() != other.fingerprint()

    def test_choice_readers_cover_member_inputs(self):
        tree = _tree(_opt("G"), _opt("P"), _opt("Q"))
        tree.add_choice(
            ChoiceGroup(name="c", members=("P", "Q"), default_member="P")
        )
        index = tree.resolution_index()
        assert index.choice_readers[index.pos_of["P"]]
        assert index.choice_readers[index.pos_of["Q"]]
        assert not index.choice_readers[index.pos_of["G"]]


class TestResolutionCache:
    def _tree(self):
        return _tree(_opt("A"), _opt("B", depends="A"))

    def test_hit_returns_equal_config_without_resolving(self):
        RESOLUTION_CACHE.reset()
        tree = self._tree()
        resolver = Resolver(tree)
        performed = METRICS.counter("kconfig.resolutions")
        first = resolver.resolve_names(["A", "B"])
        count = performed.value
        second = resolver.resolve_names(["A", "B"])
        assert performed.value == count  # the hit does no resolution work
        assert second.values == first.values
        assert second.demoted == first.demoted

    def test_hit_rebinds_across_tree_instances(self):
        RESOLUTION_CACHE.reset()
        one, two = self._tree(), self._tree()
        Resolver(one).resolve_names(["A"])
        config = Resolver(two).resolve_names(["A"])
        assert config.tree is two

    def test_request_order_is_part_of_the_key(self):
        """Choice tie-breaks follow request order, so permutations of the
        same pins are distinct cache entries."""
        RESOLUTION_CACHE.reset()
        tree = _tree(_opt("P"), _opt("Q"))
        tree.add_choice(ChoiceGroup(name="c", members=("P", "Q")))
        first = Resolver(tree).resolve({"P": Y, "Q": Y})
        flipped = Resolver(tree).resolve({"Q": Y, "P": Y})
        assert "P" in first and "Q" not in first
        assert "Q" in flipped and "P" not in flipped

    def test_lru_eviction(self):
        cache = ResolutionCache(max_entries=2)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.lookup("a") == 1  # refresh "a"
        cache.store("c", 3)  # evicts "b"
        assert cache.lookup("b") is None
        assert cache.lookup("a") == 1
        assert cache.lookup("c") == 3
        assert len(cache) == 2

    def test_store_keeps_first_writer(self):
        cache = ResolutionCache(max_entries=4)
        assert cache.store("k", "first") == "first"
        assert cache.store("k", "second") == "first"
        assert cache.lookup("k") == "first"

    def test_reset_empties(self):
        cache = ResolutionCache(max_entries=4)
        cache.store("k", 1)
        cache.reset()
        assert len(cache) == 0
        assert cache.lookup("k") is None


class TestWarmStart:
    def _tree(self):
        return _tree(
            _opt("A"),
            _opt("B", depends="A"),
            _opt("C", default="B"),
            _opt("D", depends="!A"),
            _opt("E", selects=["A"]),
        )

    def _pair(self, tree, base_names, delta_names):
        resolver = Resolver(tree)
        base = resolver.resolve_names(base_names, use_cache=False)
        warm = resolver.resolve_names_from(
            base, delta_names, use_cache=False
        )
        cold = resolver.resolve_names(delta_names, use_cache=False)
        return warm, cold

    @pytest.mark.parametrize("base_names,delta_names", [
        (["A"], ["A", "B"]),          # pin added
        (["A", "B"], ["A"]),          # pin removed
        (["A", "B"], ["B"]),          # upstream pin removed -> demotion
        (["A"], ["D"]),               # flip to the negated branch
        (["E"], ["E", "B"]),          # delta over a select
        ([], ["A", "B", "C", "E"]),   # empty base
        (["A", "B", "C", "E"], []),   # empty delta
    ])
    def test_delta_matches_cold(self, base_names, delta_names):
        warm, cold = self._pair(self._tree(), base_names, delta_names)
        assert warm.values == cold.values
        assert warm.demoted == cold.demoted
        assert warm.select_violations == cold.select_violations
        assert warm.requested == cold.requested

    def test_warm_visits_fewer_options_than_cold(self, tree):
        from repro.apps.registry import TOP20_APPS
        from repro.core.specialization import app_config_names
        from repro.kconfig.database import base_option_names

        resolver = Resolver(tree)
        base = resolver.resolve_names(
            base_option_names(), name="lupine-base", use_cache=False
        )
        names = app_config_names(TOP20_APPS[0])
        visited = METRICS.counter("kconfig.resolve.visited_options")

        before = visited.value
        resolver.resolve_names(names, use_cache=False)
        cold = visited.value - before

        before = visited.value
        resolver.resolve_names_from(base, names, use_cache=False)
        warm = visited.value - before

        assert warm * 10 <= cold

    def test_base_from_other_tree_rejected(self):
        one = self._tree()
        other = _tree(_opt("A"), _opt("Z"))
        base = Resolver(one).resolve_names(["A"], use_cache=False)
        with pytest.raises(ValueError, match="different tree"):
            Resolver(other).resolve_names_from(base, ["Z"])

    def test_base_from_equal_content_tree_accepted(self):
        one, two = self._tree(), self._tree()
        base = Resolver(one).resolve_names(["A"], use_cache=False)
        warm = Resolver(two).resolve_names_from(
            base, ["A", "B"], use_cache=False
        )
        assert warm.enabled == {"A", "B", "C"}  # C's default tracks B


class TestBenchCheck:
    def _result(self, **overrides):
        # Every entry of the committed document, with small headline
        # numbers the cases below perturb.
        result = json.loads(BENCH_RESOLVE_BASELINE.read_text("utf-8"))
        result["counters"].update({
            "kconfig.resolve.visited_options.cold_worklist": 1000,
            "kconfig.resolve.visited_options.warm_delta": 50,
            "kconfig.resolve.visited_options.cache_hit": 0,
            "kconfig.resolve.cache_hits.cache_hit": 20,
        })
        result["counters"].update(overrides)
        return result

    def test_passing_result(self):
        assert check_result(self._result()) == []

    def test_committed_baseline_passes(self):
        baseline = json.loads(BENCH_RESOLVE_BASELINE.read_text("utf-8"))
        assert check_result(baseline) == []

    def test_empty_document_fails(self):
        failures = check_result({})
        assert failures and "missing" in failures[0]

    def test_missing_scenario_fails(self):
        result = self._result()
        for name in [n for n in result["counters"]
                     if n.endswith(".warm_delta")]:
            del result["counters"][name]
        failures = check_result(result)
        assert failures and "warm_delta" in failures[0]

    def test_missing_apps_gauge_fails(self):
        result = self._result()
        del result["gauges"]["kconfig.resolve.bench_apps"]
        failures = check_result(result)
        assert failures and "bench_apps" in failures[0]

    def test_warm_delta_without_work_fails(self):
        failures = check_result(self._result(**{
            "kconfig.resolve.visited_options.warm_delta": 0,
        }))
        assert any("did no resolution work" in f for f in failures)

    def test_ratio_below_floor_fails(self):
        failures = check_result(self._result(**{
            "kconfig.resolve.visited_options.warm_delta": 500,
        }))
        assert any("10x" in f or ">= 10" in f for f in failures)

    def test_cache_hit_work_fails(self):
        failures = check_result(self._result(**{
            "kconfig.resolve.visited_options.cache_hit": 3,
        }))
        assert any("no resolution work" in f for f in failures)

    def test_missing_hits_fail(self):
        failures = check_result(self._result(**{
            "kconfig.resolve.cache_hits.cache_hit": 19,
        }))
        assert any("cache hits" in f for f in failures)
