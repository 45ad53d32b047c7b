"""The process-wide, content-addressed kernel build cache.

The paper's evaluation (and our 14+ experiment reproductions of it) builds
the same handful of kernel variants over and over: every figure driver used
to call :func:`~repro.core.variants.build_variant` from scratch, and the
orchestrator kept its own private per-app memo.  MultiK-style fleet
deployment argues the opposite design: one shared cache, keyed on *what the
kernel is* (the resolved configuration) rather than *who asked for it* (the
application name), so identical configurations are built exactly once per
process no matter how many experiments, CLI invocations or orchestrator
policies request them.

``KernelBuildCache`` is that cache.  Keys are content fingerprints -- a
stable hash of the requested option set plus the KML/patch state -- so two
applications that resolve to the identical specialized configuration share
one build, which is also what makes ``FleetSimulation.distinct_kernels``
meaningful.  Every experiment the harness runs hits this one instance.

Invariants:

- **Cache-key composition.** :func:`config_fingerprint` is deterministic
  in the *set* of requested option names (order/duplicates irrelevant)
  plus the KML flag, the applied patch list, and the caller salt --
  nothing else.  Anything that changes the produced image must be part of
  the key; anything that doesn't (the requesting app's name, call order)
  must not be.
- **Build-once accounting.** ``hits + misses`` counts every
  ``get_or_build`` call, and ``misses == builds stored``: "builds
  performed" equals distinct entries created.
- **No poisoned entries.** A factory that raises stores nothing and
  counts nothing: the exception propagates before any entry or counter
  is touched, so the next ``get_or_build`` on the same key retries the
  build from scratch.  (The ``buildcache.factory`` fault site exercises
  exactly this path; see ``docs/RESILIENCE.md``.)

Cache effectiveness is published to the process metrics registry as
``buildcache.hits`` / ``buildcache.misses`` counters and the
``buildcache.entries`` gauge (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Tuple

from repro.faults import fault_site
from repro.observe import METRICS, span


def config_fingerprint(
    names: Iterable[str],
    kml: bool = False,
    patches: Tuple[str, ...] = (),
    salt: str = "",
) -> str:
    """Content fingerprint of a kernel configuration request.

    Deterministic in the *set* of requested options (order and duplicates
    are irrelevant, as they are to the resolver) plus everything else that
    changes the produced image: the KML flag, applied source patches, and
    an optional caller salt.
    """
    payload = "\n".join(sorted(set(names)))
    payload += f"\nkml={kml}\npatches={','.join(patches)}\nsalt={salt}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class BuildCacheStats:
    """A point-in-time snapshot of cache effectiveness counters."""

    hits: int
    misses: int
    entries: int


class KernelBuildCache:
    """Content-addressed cache of built kernel artifacts."""

    def __init__(self) -> None:
        self._entries: Dict[str, Any] = {}
        self._hits = 0
        self._misses = 0

    def get_or_build(self, key: str, factory: Callable[[], Any]) -> Any:
        """Return the cached artifact for *key*, building it on first use."""
        if key in self._entries:
            self._hits += 1
            METRICS.counter("buildcache.hits").inc()
            return self._entries[key]
        with span("buildcache.build", category="buildcache", key=key):
            with fault_site("buildcache.factory"):
                artifact = factory()
        self._entries[key] = artifact
        self._misses += 1
        METRICS.counter("buildcache.misses").inc()
        METRICS.gauge("buildcache.entries").set(len(self._entries))
        return artifact

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> BuildCacheStats:
        return BuildCacheStats(
            hits=self._hits, misses=self._misses,
            entries=len(self._entries),
        )

    def reset(self) -> None:
        """Drop all entries and counters (test isolation)."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0


#: The one cache every build path in the process shares.
BUILD_CACHE = KernelBuildCache()


def build_cache() -> KernelBuildCache:
    """The process-wide kernel build cache."""
    return BUILD_CACHE
