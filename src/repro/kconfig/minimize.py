"""``savedefconfig``-style configuration minimization.

Given a resolved configuration, compute a minimal *request* set: the
smallest list of option names that, when resolved against the same tree,
reproduces exactly the same enabled set.  Options re-established by
``select`` edges or ``default`` expressions need not be requested -- this is
what lets the kernel's defconfig files stay small, and what lets Lupine's
application manifests list only the 0-13 options of Table 3 instead of the
full ~290.

The algorithm seeds the request with options that nothing else implies, then
greedily drops candidates whose removal leaves the resolution unchanged.
Greedy removal is exact here because resolution is monotone in the request
set for select/default-implied options.
"""

from __future__ import annotations

from typing import FrozenSet, Set

from repro.kconfig.resolver import ResolvedConfig, Resolver


def _implied_by_selects(config: ResolvedConfig) -> Set[str]:
    implied: Set[str] = set()
    tree = config.tree
    for name in config.enabled:
        for target in tree[name].selects:
            if target in config:
                implied.add(target)
    return implied


def _implied_by_defaults(config: ResolvedConfig) -> Set[str]:
    implied: Set[str] = set()
    for name in config.enabled:
        default = config.tree[name].default
        if default is not None and default.evaluate(config.values) >= (
            config.value(name)
        ):
            implied.add(name)
    return implied


def minimize_config(config: ResolvedConfig) -> FrozenSet[str]:
    """Compute a minimal request set reproducing *config*.

    Returns option names; ``Resolver(tree).resolve_names(result)`` yields a
    configuration with the same ``enabled`` set.
    """
    resolver = Resolver(config.tree)
    target = config.enabled

    candidates_for_removal = _implied_by_selects(config) | (
        _implied_by_defaults(config)
    )
    request: Set[str] = set(target)

    # Drop candidates one at a time, keeping the removal only if the
    # resolution still reaches the target set.  Deterministic order.
    # Trial resolutions are throwaway one-offs: bypass the process-wide
    # resolution cache rather than churn its LRU with them.
    for name in sorted(candidates_for_removal):
        trial = request - {name}
        resolved = resolver.resolve_names(sorted(trial), use_cache=False)
        if resolved.enabled == target:
            request = trial
    return frozenset(request)
