"""The active-clock context: which guest's clock is "now".

Layers that model time but do not own a guest object -- the boot
simulator advancing phase durations, the harness charging retry backoff,
the fault plane simulating a hang -- advance :func:`current_clock`.
Outside any guest that is the **process default clock** (the ambient
simulated timeline the old ``TRACER.sim`` counter provided); inside
``Guest`` lifecycle operations it is that guest's own
:class:`~repro.simcore.clock.VirtualClock`, entered via
:func:`use_clock`.

``observe.TRACER.sim`` is a millisecond view over exactly this function,
so existing traces keep working while every advance lands on the single
per-guest time authority.

The stack is thread-local: the experiment harness runs guests on a
thread pool, and each worker's active guest must not leak into its
neighbours.
"""

from __future__ import annotations

import threading
from typing import List

from repro.simcore.clock import VirtualClock

#: The ambient timeline used outside any guest scope.
_DEFAULT_CLOCK = VirtualClock()

_active = threading.local()


def _stack() -> List[VirtualClock]:
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = []
        _active.stack = stack
    return stack


def default_clock() -> VirtualClock:
    """The process-wide ambient clock (advances outside guest scopes)."""
    return _DEFAULT_CLOCK


def current_clock() -> VirtualClock:
    """The clock time-modelling code should advance *right now*."""
    stack = _stack()
    return stack[-1] if stack else _DEFAULT_CLOCK


class _ClockScope:
    """The context manager :func:`use_clock` returns.

    A plain object rather than a ``@contextmanager`` generator: a
    serving run enters several of these per request (each event-core
    dispatch and each guest serve), so entry should cost a push and a
    pop, not a generator frame.
    """

    __slots__ = ("_clock", "_stack")

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock

    def __enter__(self) -> VirtualClock:
        stack = _stack()
        stack.append(self._clock)
        self._stack = stack
        return self._clock

    def __exit__(self, *exc_info: object) -> None:
        self._stack.pop()


def use_clock(clock: VirtualClock) -> _ClockScope:
    """Make *clock* the active clock for the dynamic extent of the body."""
    return _ClockScope(clock)
