"""The full-sweep resolver: four whole-tree passes per iteration.

This is the original ``olddefconfig`` fixpoint the shipped worklist
engine (:mod:`repro.kconfig.resolver`) replaced.  It evaluates option
ASTs and walks the tree instead of using the resolution index, so an
index or scheduling bug in the worklist engine cannot hide from the
differential tests (``tests/kconfig/test_resolver_differential.py``)
that compare the two.  It never consults the resolution cache and has
no warm start.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Set, Tuple

from repro.kconfig.expr import Tristate
from repro.kconfig.model import KconfigTree, OptionType
from repro.kconfig.resolver import (
    _MAX_ITERATIONS,
    ResolutionError,
    ResolvedConfig,
    Resolver,
)


def resolve_sweep(tree: KconfigTree, requested: Mapping[str, Tristate],
                  name: str = "") -> ResolvedConfig:
    """Resolve *requested* the way ``Resolver(tree).resolve`` must.

    Requests go through the shipped resolver's own validation (strict:
    unknown options raise), so only the fixpoint differs.
    """
    pinned = Resolver(tree)._validate_requests(requested)
    engine = _SweepEngine(tree, pinned)
    engine.run()
    return ResolvedConfig(
        tree=tree,
        values=dict(engine.values),
        requested=dict(pinned),
        demoted=dict(engine.demoted),
        select_violations=tuple(sorted(engine.violations)),
        name=name,
    )


class _SweepEngine:
    def __init__(self, tree: KconfigTree, pinned: Mapping[str, Tristate]):
        self.tree = tree
        self.pinned = pinned
        self.values: Dict[str, Tristate] = {
            option.name: Tristate.NO
            for option in tree
            if option.option_type.is_symbolic
        }
        self.values.update(pinned)
        self.demoted: Dict[str, str] = {}
        self.violations: Set[Tuple[str, str]] = set()

    def run(self) -> None:
        values, pinned = self.values, self.pinned
        demoted, violations = self.demoted, self.violations
        for _ in range(_MAX_ITERATIONS):
            changed = False
            # select overrides depends-on in kconfig, so compute the set
            # of select-forced targets first and exempt them from
            # demotion.
            forced = self._forced_targets(values)
            changed |= self._apply_dependencies(values, demoted, forced)
            changed |= self._apply_selects(values, demoted, violations)
            changed |= self._apply_defaults(values, pinned)
            changed |= self._apply_choices(values, pinned, demoted)
            if not changed:
                break
        else:
            raise ResolutionError("configuration did not converge")

        # Re-check select-forced options against their dependencies one last
        # time so violations caused by late demotions are recorded.
        for source_name, target_name in self._select_edges(values):
            target = self.tree[target_name]
            if target.depends_on.evaluate(values) is Tristate.NO:
                violations.add((source_name, target_name))

        # A demotion record can go stale: selects pop their target's entry
        # when re-forcing it, but an option re-enabled by its *default*
        # (after the blocking dependency itself got enabled) kept its old
        # record.  Resolution rules only ever record reasons for options
        # that end up off, so drop records for enabled options.
        self.demoted = {
            name: reason
            for name, reason in demoted.items()
            if values[name] is Tristate.NO
        }

    def _forced_targets(self, values: Dict[str, Tristate]) -> Set[str]:
        """Names currently forced on by an enabled option's select."""
        return {target for _, target in self._select_edges(values)}

    def _select_edges(
        self, values: Dict[str, Tristate]
    ) -> Iterator[Tuple[str, str]]:
        """(source, target) select edges whose source is enabled."""
        for option in self.tree:
            if values.get(option.name, Tristate.NO) is Tristate.NO:
                continue
            for target_name in option.selects:
                target = self.tree.get(target_name)
                if target is not None and target.option_type.is_symbolic:
                    yield option.name, target_name

    def _apply_dependencies(
        self,
        values: Dict[str, Tristate],
        demoted: Dict[str, str],
        forced: Set[str],
    ) -> bool:
        changed = False
        for option in self.tree:
            if not option.option_type.is_symbolic:
                continue
            current = values[option.name]
            if current is Tristate.NO:
                continue
            if option.name in forced:
                continue
            visible = option.depends_on.evaluate(values)
            if visible is Tristate.NO:
                values[option.name] = Tristate.NO
                demoted[option.name] = str(option.depends_on)
                changed = True
            elif visible is Tristate.MODULE and current is Tristate.YES:
                if option.option_type is OptionType.TRISTATE:
                    values[option.name] = Tristate.MODULE
                    changed = True
        return changed

    def _apply_selects(
        self,
        values: Dict[str, Tristate],
        demoted: Dict[str, str],
        select_violations: Set[Tuple[str, str]],
    ) -> bool:
        changed = False
        for option in self.tree:
            if not option.option_type.is_symbolic:
                continue
            source_value = values.get(option.name, Tristate.NO)
            if source_value is Tristate.NO:
                continue
            for target_name in option.selects:
                target = self.tree.get(target_name)
                if target is None or not target.option_type.is_symbolic:
                    continue
                forced = source_value
                if target.option_type is OptionType.BOOL:
                    forced = Tristate.YES
                if values[target_name] < forced:
                    values[target_name] = forced
                    demoted.pop(target_name, None)
                    changed = True
                    if target.depends_on.evaluate(values) is Tristate.NO:
                        select_violations.add((option.name, target_name))
        return changed

    def _apply_defaults(
        self,
        values: Dict[str, Tristate],
        pinned: Mapping[str, Tristate],
    ) -> bool:
        changed = False
        for option in self.tree:
            if not option.option_type.is_symbolic or option.default is None:
                continue
            if option.name in pinned or values[option.name] is not Tristate.NO:
                continue
            if option.depends_on.evaluate(values) is Tristate.NO:
                continue
            value = option.default.evaluate(values)
            if option.option_type is OptionType.BOOL and value is Tristate.MODULE:
                value = Tristate.YES
            if value is not Tristate.NO:
                values[option.name] = value
                changed = True
        return changed

    def _apply_choices(
        self,
        values: Dict[str, Tristate],
        pinned: Mapping[str, Tristate],
        demoted: Dict[str, str],
    ) -> bool:
        """Enforce choice-group exclusivity and defaults.

        Among enabled members the winner is the first *requested* one --
        request mappings preserve insertion order, so ties between
        several requested members go to whichever the caller asked for
        first -- else the first enabled member in declaration order;
        everyone else is demoted.  An all-off choice takes its default
        member.
        """
        changed = False
        for choice in self.tree.choices():
            enabled_members = [
                m for m in choice.members
                if values.get(m, Tristate.NO) is not Tristate.NO
            ]
            if not enabled_members:
                default = choice.default_member
                if default is not None and default not in pinned:
                    option = self.tree[default]
                    if option.depends_on.evaluate(values) is not Tristate.NO:
                        values[default] = Tristate.YES
                        changed = True
                continue
            requested_members = [
                m for m in pinned
                if m in choice.members
                and pinned[m] is not Tristate.NO
                and values.get(m, Tristate.NO) is not Tristate.NO
            ]
            winner = (requested_members or enabled_members)[0]
            for member in enabled_members:
                if member != winner:
                    values[member] = Tristate.NO
                    demoted[member] = f"choice {choice.name}: {winner} wins"
                    changed = True
        return changed
