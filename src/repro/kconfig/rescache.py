"""The process-wide resolution cache.

Kernel-config resolution is deterministic: the same tree (by content
fingerprint) and the same frozen request set always produce the same
:class:`~repro.kconfig.resolver.ResolvedConfig`.  The experiment harness
resolves the same handful of configurations again and again (every
variant build starts with a resolution), so — exactly like the kernel
build cache one layer up — resolutions are memoized process-wide.

Keys are built by the resolver: ``(tree fingerprint, sorted pinned
requests, mode)`` where *mode* distinguishes cold resolutions from
warm-start derivations (see ``Resolver.resolve_from``); the two are kept
in separate namespaces so a warm derivation can never masquerade as the
cold oracle result.  The ``strategy="sweep"`` differential oracle never
touches this cache.

The cache is bounded (LRU): callers like ``minimize_config`` probe many
throwaway request sets, and each cached entry pins a full ~16k-entry
value map.  Effectiveness is published as the
``kconfig.resolve.cache_hits`` / ``kconfig.resolve.cache_misses``
counters and the ``kconfig.resolve.cache_entries`` gauge.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional

from repro.observe import METRICS

#: Entries kept before least-recently-used eviction; each entry holds a
#: full resolved value map, so the bound is deliberately modest.
DEFAULT_MAX_ENTRIES = 64


@dataclass(frozen=True)
class ResolutionCacheStats:
    """A point-in-time snapshot of cache effectiveness counters."""

    hits: int
    misses: int
    entries: int


class ResolutionCache:
    """Bounded LRU cache of resolved configurations."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("resolution cache needs at least one entry")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def lookup(self, key: Hashable) -> Optional[Any]:
        """The cached resolution for *key*, or None (counts the outcome)."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._hits += 1
            METRICS.counter("kconfig.resolve.cache_hits").inc()
            return entry
        self._misses += 1
        METRICS.counter("kconfig.resolve.cache_misses").inc()
        return None

    def store(self, key: Hashable, config: Any) -> Any:
        """Store *config* under *key*; return the cached entry.

        An entry already stored under *key* is kept and returned, so a
        caller never replaces a resolution another caller holds.
        """
        existing = self._entries.get(key)
        if existing is not None:
            return existing
        self._entries[key] = config
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        METRICS.gauge("kconfig.resolve.cache_entries").set(
            len(self._entries)
        )
        return config

    def stats(self) -> ResolutionCacheStats:
        return ResolutionCacheStats(
            hits=self._hits, misses=self._misses,
            entries=len(self._entries),
        )

    def __len__(self) -> int:
        return len(self._entries)

    def reset(self) -> None:
        """Drop all entries and counters (test isolation)."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0


#: The one resolution cache every resolver in the process shares.
RESOLUTION_CACHE = ResolutionCache()
