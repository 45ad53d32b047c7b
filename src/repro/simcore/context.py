"""The active-clock context: which guest's clock is "now".

Layers that model time but do not own a guest object -- the boot
simulator advancing phase durations, the harness charging retry backoff,
the fault plane simulating a hang -- advance :func:`current_clock`.
Outside any guest that is the **process default clock** (the ambient
simulated timeline); inside ``Guest`` lifecycle operations it is that
guest's own :class:`~repro.simcore.clock.VirtualClock`, entered via
:func:`use_clock`.

The tracer (:mod:`repro.observe.tracer`) stamps every span's simulated
time from exactly this function, so traces line up with the single
per-guest time authority.

The process runs one thread, so the scope stack is one module-level
list.
"""

from __future__ import annotations

from typing import List

from repro.simcore.clock import VirtualClock

#: The ambient timeline used outside any guest scope.
_DEFAULT_CLOCK = VirtualClock()

#: The entered clocks, innermost last.
_STACK: List[VirtualClock] = []


def default_clock() -> VirtualClock:
    """The process-wide ambient clock (advances outside guest scopes)."""
    return _DEFAULT_CLOCK


def current_clock() -> VirtualClock:
    """The clock time-modelling code should advance *right now*."""
    return _STACK[-1] if _STACK else _DEFAULT_CLOCK


class _ClockScope:
    """The context manager :func:`use_clock` returns.

    A plain object rather than a ``@contextmanager`` generator: a
    serving run enters several of these per request (each event-core
    dispatch and each guest serve), so entry should cost a push and a
    pop, not a generator frame.
    """

    __slots__ = ("_clock",)

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock

    def __enter__(self) -> VirtualClock:
        _STACK.append(self._clock)
        return self._clock

    def __exit__(self, *exc_info: object) -> None:
        _STACK.pop()


def use_clock(clock: VirtualClock) -> _ClockScope:
    """Make *clock* the active clock for the dynamic extent of the body."""
    return _ClockScope(clock)
