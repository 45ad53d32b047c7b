"""Per-tree resolution index: reverse dependencies + compiled expressions.

The worklist resolver (:mod:`repro.kconfig.resolver`) needs to answer, for
every value change of a symbol ``X``, "which options could this affect?"
without sweeping the whole 15,953-option tree.  This module precomputes
that answer once per :class:`~repro.kconfig.model.KconfigTree`:

- a dense position index over the *symbolic* (bool/tristate) options in
  tree order, so worklists are integer heaps rather than name sets;
- reverse indices: symbol -> options whose ``depends on`` mention it,
  symbol -> options whose ``default``/``depends on`` mention it (the
  defaults phase reads both), select target -> selecting sources, and
  symbol -> choice groups that read it (membership or the default
  member's dependencies);
- compiled evaluators (:func:`repro.kconfig.expr.compile_expr`) for every
  ``depends on`` and ``default`` expression, plus the rendered
  ``str(depends_on)`` demotion reasons, so the hot fixpoint loop never
  re-walks an AST or re-renders a reason string;
- the flat list of ``(source, target)`` select edges for the final
  violation pass, and a content fingerprint of the whole tree used as
  the resolution-cache key component.

The index is immutable once built and is cached on the tree by
:meth:`KconfigTree.resolution_index`; trees are append-only, so a length
check is enough to detect staleness.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.kconfig.expr import Env, Tristate, compile_expr, expr_symbols, is_const_true
from repro.kconfig.model import ChoiceGroup, KconfigTree, OptionType

EvalFn = Callable[[Env], Tristate]


class ResolutionIndex:
    """Immutable acceleration structures for resolving one tree."""

    def __init__(self, tree: KconfigTree) -> None:
        self.option_count = len(tree)
        self.choice_count = len(tree.choices())

        names: List[str] = []
        pos_of: Dict[str, int] = {}
        for option in tree:
            if option.option_type.is_symbolic:
                pos_of[option.name] = len(names)
                names.append(option.name)
        self.names: Tuple[str, ...] = tuple(names)
        self.pos_of: Dict[str, int] = pos_of
        count = len(names)

        self.is_bool: List[bool] = [False] * count
        self.is_tristate: List[bool] = [False] * count
        #: Compiled ``depends on``; ``None`` means the constant ``y`` (no
        #: dependencies), which the engine can skip without evaluating.
        self.dep_fn: List[Optional[EvalFn]] = [None] * count
        self.dep_reason: List[str] = [""] * count
        self.def_fn: List[Optional[EvalFn]] = [None] * count
        #: Select targets per source (symbolic targets only, select order).
        self.selects_of: List[Tuple[int, ...]] = [()] * count

        # Reverse edges by position; most options have none.
        rev_dep: Dict[int, List[int]] = {}
        rev_def: Dict[int, List[int]] = {}
        rev_sel: Dict[int, List[int]] = {}

        select_edges: List[Tuple[int, int]] = []
        digest = hashlib.sha256()
        digest.update(f"tree:{tree.kernel_version}\n".encode("utf-8"))

        lines: List[str] = []
        for option in tree:
            lines.append(
                f"{option.name}\x1f{option.option_type.value}\x1f"
                f"{option.depends_on}\x1f{','.join(option.selects)}\x1f"
                f"{option.default if option.default is not None else ''}\n"
            )
            p = pos_of.get(option.name)
            if p is None:
                continue
            self.is_bool[p] = option.option_type is OptionType.BOOL
            self.is_tristate[p] = option.option_type is OptionType.TRISTATE
            self.dep_reason[p] = str(option.depends_on)
            no_deps = is_const_true(option.depends_on)
            if no_deps and option.default is None and not option.selects:
                # No dependency, select or default (every filler option):
                # nothing to compile and no reverse edge to record.
                continue
            if not no_deps:
                self.dep_fn[p] = compile_expr(option.depends_on)
            dep_symbols = expr_symbols(option.depends_on)
            for symbol in dep_symbols:
                q = pos_of.get(symbol)
                if q is not None:
                    rev_dep.setdefault(q, []).append(p)
            if option.default is not None:
                self.def_fn[p] = compile_expr(option.default)
                # The defaults phase re-reads both the option's visibility
                # (depends on) and its default expression.
                for symbol in dep_symbols | expr_symbols(option.default):
                    q = pos_of.get(symbol)
                    if q is not None:
                        rev_def.setdefault(q, []).append(p)
            targets = []
            for target_name in option.selects:
                t = pos_of.get(target_name)
                target = tree.get(target_name)
                if t is not None and target is not None:
                    targets.append(t)
                    rev_sel.setdefault(t, []).append(p)
                    select_edges.append((p, t))
            self.selects_of[p] = tuple(targets)
        digest.update("".join(lines).encode("utf-8"))

        self.rev_dep: List[Tuple[int, ...]] = _by_position(rev_dep, count)
        self.rev_def: List[Tuple[int, ...]] = _by_position(rev_def, count)
        self.rev_sel: List[Tuple[int, ...]] = _by_position(rev_sel, count)
        #: ``(source, target)`` positions in tree-iteration order, for the
        #: post-fixpoint select-violation pass (O(edges), not O(tree)).
        self.select_edges: Tuple[Tuple[int, int], ...] = tuple(select_edges)
        #: Source positions that select anything (forced-set bookkeeping).
        self.has_selects: Tuple[int, ...] = tuple(
            p for p in range(count) if self.selects_of[p]
        )

        self.choices: Tuple[ChoiceGroup, ...] = tuple(tree.choices())
        choice_readers: Dict[int, List[int]] = {}
        #: Per choice: member positions (member order), default position,
        #: compiled default-member dependency.
        self.choice_members: List[Tuple[int, ...]] = []
        self.choice_default: List[Optional[int]] = []
        self.choice_default_dep: List[Optional[EvalFn]] = []
        for c, choice in enumerate(self.choices):
            digest.update(
                (
                    f"choice\x1f{choice.name}\x1f{','.join(choice.members)}"
                    f"\x1f{choice.default_member or ''}\n"
                ).encode("utf-8")
            )
            members = []
            for member in choice.members:
                m = pos_of.get(member)
                if m is not None:
                    members.append(m)
                    choice_readers.setdefault(m, []).append(c)
            self.choice_members.append(tuple(members))
            default = choice.default_member
            d = pos_of.get(default) if default is not None else None
            self.choice_default.append(d)
            if d is not None:
                option = tree[default]
                self.choice_default_dep.append(
                    None if is_const_true(option.depends_on)
                    else compile_expr(option.depends_on)
                )
                for symbol in expr_symbols(option.depends_on):
                    q = pos_of.get(symbol)
                    if q is not None and c not in choice_readers.get(q, ()):
                        choice_readers.setdefault(q, []).append(c)
            else:
                self.choice_default_dep.append(None)
        self.choice_readers: List[Tuple[int, ...]] = _by_position(
            choice_readers, count
        )

        #: Content fingerprint of the tree (options + semantics + choices);
        #: the resolution cache's tree key component.
        self.fingerprint: str = digest.hexdigest()[:16]


def _by_position(edges: Dict[int, List[int]],
                 count: int) -> List[Tuple[int, ...]]:
    """*edges* as a dense per-position list of tuples (``()`` for none)."""
    dense: List[Tuple[int, ...]] = [()] * count
    for position, targets in edges.items():
        dense[position] = tuple(targets)
    return dense
