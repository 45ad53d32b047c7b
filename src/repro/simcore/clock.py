"""The per-guest virtual clock: one time authority for every layer.

Before this module the repository kept disconnected time domains --
``TRACER.sim`` (milliseconds), ``SyscallEngine.clock_ns`` and the
scheduler's nanosecond accumulator -- so a boot, a syscall burst and a
request on the *same guest* advanced unrelated counters and cross-layer
causality was unrepresentable.

:class:`VirtualClock` is the single authority: a nanosecond-resolution
monotonic accumulator.  The boot simulator, syscall engine, scheduler
and TCP stack of one guest all advance the same instance (see
:mod:`repro.simcore.guest`); the tracer's spans read the *active* clock
(:mod:`repro.simcore.context`) in milliseconds.  A clock holds no
deadlines: a program that waits for a virtual instant yields it to the
fleet's one heap (:mod:`repro.simcore.eventcore`), which lands the clock
there with :meth:`VirtualClock.advance_to`.

Float-fold exactness
--------------------

The reproduction's golden-parity guarantee rests on IEEE-754 addition
being replayed exactly: experiment outputs are folds like
``clock += latency`` and float addition is not associative.  The clock
therefore guarantees that ``advance(ns)`` computes **exactly**
``now + ns`` (one double addition, identical to the ``clock_ns += x``
folds it replaces), and ``advance_to``/``jump_to`` set the target value
**exactly** (no ``now + (target - now)`` rounding detour).
"""

from __future__ import annotations


class ClockError(ValueError):
    """Invalid clock operations (negative advances, past targets)."""


class VirtualClock:
    """Monotonic simulated time in nanoseconds.

    Only the explicit rebases move it backwards: :meth:`jump_to` and
    :meth:`reset`.
    """

    def __init__(self) -> None:
        self._now_ns = 0.0

    @property
    def now_ns(self) -> float:
        return self._now_ns

    @property
    def now_ms(self) -> float:
        return self._now_ns / 1e6

    def advance(self, ns: float) -> float:
        """Advance by *ns* >= 0 nanoseconds; returns the new now.

        Exactness: the new value is exactly ``now + ns`` (one double
        addition).
        """
        if ns < 0:
            raise ClockError(f"virtual time cannot go backwards ({ns} ns)")
        self._now_ns += ns
        return self._now_ns

    def advance_ms(self, ms: float) -> float:
        """Advance by *ms* milliseconds; returns the new now in ms."""
        if ms < 0:
            raise ClockError(f"virtual time cannot go backwards ({ms} ms)")
        return self.advance(ms * 1e6) / 1e6

    def advance_to(self, target_ns: float) -> float:
        """Advance to exactly *target_ns* (>= now); returns it."""
        if target_ns < self._now_ns:
            raise ClockError(
                f"advance_to({target_ns}) is in the past "
                f"(now {self._now_ns})"
            )
        self._now_ns = target_ns
        return target_ns

    def jump_to(self, value_ns: float) -> float:
        """Set the clock to exactly *value_ns*, forwards or backwards.

        The administrative rebase ``SyscallEngine.reset_clock`` performs;
        forward jumps land like :meth:`advance_to`.
        """
        self._now_ns = float(value_ns)
        return self._now_ns

    def reset(self) -> None:
        """Rewind to zero (test isolation)."""
        self._now_ns = 0.0
