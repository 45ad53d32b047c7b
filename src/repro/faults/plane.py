"""The deterministic fault-injection plane.

A :class:`FaultPlane` owns a set of named injection *sites* -- stable
strings like ``"buildcache.factory"`` or ``"resultcache.load"`` -- and a
seeded schedule deciding, per call, whether that site misbehaves.  Library
code declares its natural failure points once::

    from repro.faults import fault_site

    with fault_site("kbuild.build"):
        image = self._build(config, ...)

and pays next to nothing when no plane is installed: the site is a
shared no-op object (no spans, no metrics, no RNG draws), so fault-free
runs are byte-identical to a build of the tree without this module.

Determinism is the whole point -- a chaos run must be replayable:

- **Stateless decisions.**  Whether call *n* at ``(site, scope)`` injects
  is a pure function of ``(seed, site, scope, n)`` -- each decision draws
  from its own ``random.Random`` seeded with exactly that tuple, never
  from shared RNG state, so calls at one site cannot shift another
  site's draws.
- **Scoped call counters.**  The harness wraps each experiment in
  :func:`experiment_scope`, so the per-site call index is counted per
  experiment: the experiments that ran before it do not shift its
  draws.
- **Three fault kinds.**  ``raise`` (the default) raises the configured
  exception; ``hang`` advances the simulated clock by ``hang_ms`` (a
  guest that stops answering) and raises :class:`FaultHang`, which the
  harness classifies as a timeout; ``corrupt`` is consumed by data paths
  via :func:`corrupt_text`, truncating the payload mid-byte the way a
  crashed writer would.

Every injection is observable: a ``fault.injected`` span (category
``faults``, with ``site``/``scope``/``kind`` attributes) and the
``faults.injected`` counter.  See ``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)


class FaultInjected(RuntimeError):
    """An error raised by the fault plane (not by the code under test)."""

    def __init__(self, site: str, message: Optional[str] = None,
                 transient: bool = True) -> None:
        super().__init__(message or f"injected fault at {site}")
        self.site = site
        self.transient = transient


class FaultHang(FaultInjected):
    """An injected hang: the simulated clock ran past any useful deadline.

    The harness maps this to ``status="timed_out"`` rather than retrying:
    a guest that hangs once has, as far as the run can tell, hung forever.
    """

    def __init__(self, site: str, hang_ms: float) -> None:
        super().__init__(
            site,
            message=f"injected hang at {site} (+{hang_ms:g} sim ms)",
            transient=False,
        )
        self.hang_ms = hang_ms


@dataclass(frozen=True)
class FaultSpec:
    """One site's schedule.

    ``probability`` injects independently per call; ``nth_calls`` injects
    on exactly those (1-based) call indices; both can combine.
    ``max_injections`` caps how often the spec fires (1 = one-shot).
    ``transient`` marks the raised fault as retryable; ``exc`` swaps the
    raised type (e.g. ``MonitorError``) for realism at domain sites --
    note a plain exception carries no ``transient`` attribute, so the
    harness treats it as persistent.
    """

    site: str
    probability: float = 0.0
    nth_calls: Tuple[int, ...] = ()
    max_injections: Optional[int] = None
    transient: bool = True
    kind: str = "raise"                  # "raise" | "hang" | "corrupt"
    hang_ms: float = 0.0
    scope: Optional[str] = None          # restrict to one experiment scope
    message: Optional[str] = None
    exc: Optional[Callable[[str], BaseException]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("raise", "hang", "corrupt"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"{self.site}: probability must be in [0, 1], "
                f"got {self.probability}"
            )


class FaultPlane:
    """A seeded schedule of fault injections across named sites."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._specs: Dict[str, List[FaultSpec]] = {}
        self._calls: Dict[Tuple[str, str], int] = {}
        self._fired: Dict[int, int] = {}       # spec id -> injections so far
        self._injected = 0

    # -- configuration -----------------------------------------------------

    def configure(self, site: str, **kwargs: object) -> FaultSpec:
        """Add a :class:`FaultSpec` for *site* (keywords as on the spec)."""
        spec = FaultSpec(site=site, **kwargs)  # type: ignore[arg-type]
        self._specs.setdefault(site, []).append(spec)
        return spec

    def one_shot(self, site: str, **kwargs: object) -> FaultSpec:
        """A spec that fires on the first scheduled call, then never again."""
        kwargs.setdefault("nth_calls", (1,))
        kwargs.setdefault("max_injections", 1)
        return self.configure(site, **kwargs)

    @property
    def injected(self) -> int:
        """Total injections this plane has performed."""
        return self._injected

    def reset_counters(self) -> None:
        """Rewind call/injection counters (the schedule stays)."""
        self._calls.clear()
        self._fired.clear()
        self._injected = 0

    # -- decisions ---------------------------------------------------------

    def decide(self, site: str) -> Optional[FaultSpec]:
        """Count one call at *site* under the current scope; the spec to
        inject, or None.  Deterministic in ``(seed, site, scope, n)``."""
        scope = current_scope()
        specs = self._specs.get(site)
        if not specs:
            return None
        key = (site, scope)
        call = self._calls.get(key, 0) + 1
        self._calls[key] = call
        for spec in specs:
            if spec.scope is not None and spec.scope != scope:
                continue
            fired = self._fired.get(id(spec), 0)
            if (spec.max_injections is not None
                    and fired >= spec.max_injections):
                continue
            if not self._scheduled(spec, scope, call):
                continue
            self._fired[id(spec)] = fired + 1
            self._injected += 1
            return spec
        return None

    def _scheduled(self, spec: FaultSpec, scope: str, call: int) -> bool:
        if call in spec.nth_calls:
            return True
        if spec.probability <= 0.0:
            return False
        draw = random.Random(
            f"{self.seed}\x00{spec.site}\x00{scope}\x00{call}"
        ).random()
        return draw < spec.probability

    # -- injection ---------------------------------------------------------

    def maybe_raise(self, site: str) -> None:
        """Raise the scheduled fault for this call at *site*, if any."""
        spec = self.decide(site)
        if spec is None or spec.kind == "corrupt":
            return
        self._record(spec)
        if spec.kind == "hang":
            from repro.simcore.context import current_clock

            current_clock().advance_ms(spec.hang_ms)
            raise FaultHang(site, spec.hang_ms)
        message = spec.message or f"injected fault at {site}"
        if spec.exc is not None:
            raise spec.exc(message)
        raise FaultInjected(site, message=message, transient=spec.transient)

    def maybe_corrupt(self, site: str, text: str) -> str:
        """*text*, truncated mid-payload when a corrupt fault is scheduled."""
        spec = self.decide(site)
        if spec is None or spec.kind != "corrupt":
            return text
        self._record(spec)
        return text[: len(text) // 2]

    @staticmethod
    def _record(spec: FaultSpec) -> None:
        from repro.observe import METRICS, span

        METRICS.counter("faults.injected").inc()
        with span("fault.injected", category="faults",
                  site=spec.site, scope=current_scope(), kind=spec.kind):
            pass


# -- the installed plane + experiment scope ---------------------------------

_active: Optional[FaultPlane] = None
#: The experiment the harness is running ('' outside any experiment).
_scope = ""


def install(plane: FaultPlane) -> FaultPlane:
    """Make *plane* the process-wide active plane (returns it)."""
    global _active
    _active = plane
    return plane


def deactivate() -> None:
    """Remove the active plane; every site becomes a no-op again."""
    global _active
    _active = None


def active_plane() -> Optional[FaultPlane]:
    return _active


@contextmanager
def activated(plane: FaultPlane) -> Iterator[FaultPlane]:
    """Install *plane* for the duration of the block, then deactivate."""
    install(plane)
    try:
        yield plane
    finally:
        deactivate()


def current_scope() -> str:
    """The current fault scope ('' outside any experiment)."""
    return _scope


@contextmanager
def experiment_scope(name: str) -> Iterator[None]:
    """Scope fault decisions to experiment *name*."""
    global _scope
    previous = _scope
    _scope = name
    try:
        yield
    finally:
        _scope = previous


class _Site:
    """An armed injection site: decides at ``__enter__``, like any
    ``with`` statement would, so the schedule sees one decision per
    entry."""

    __slots__ = ("site",)

    def __init__(self, site: str) -> None:
        self.site = site

    def __enter__(self) -> None:
        plane = active_plane()
        if plane is not None:
            plane.maybe_raise(self.site)

    def __exit__(self, *exc_info: object) -> None:
        return None


class _UnarmedSite:
    """The site every ``fault_site`` call returns while no plane is
    installed: entering and leaving it does nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_UNARMED = _UnarmedSite()


def fault_site(site: str) -> ContextManager[None]:
    """Declare a named injection site around the ``with`` body.

    A no-op (no RNG, no metrics, no spans) unless a plane is installed.
    Sites sit on per-request paths, so the context manager is a plain
    object, and the unarmed one is shared.
    """
    if _active is None:
        return _UNARMED
    return _Site(site)


def corrupt_text(site: str, text: str) -> str:
    """*text*, possibly truncated by an active corrupt fault at *site*."""
    plane = active_plane()
    if plane is None:
        return text
    return plane.maybe_corrupt(site, text)
