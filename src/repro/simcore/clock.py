"""The per-guest virtual clock: one time authority for every layer.

Before this module the repository kept disconnected time domains --
``TRACER.sim`` (milliseconds), ``SyscallEngine.clock_ns`` and the
scheduler's nanosecond accumulator -- so a boot, a syscall burst and a
TCP teardown on the *same guest* advanced unrelated counters and
cross-layer causality (a 2MSL timer expiring because the workload ran
long enough) was unrepresentable.

:class:`VirtualClock` is the single authority: a nanosecond-resolution
monotonic accumulator with a deadline/event queue.  The boot simulator,
syscall engine, scheduler and TCP stack of one guest all advance the
same instance (see
:mod:`repro.simcore.guest`); the tracer's spans read the *active* clock
(:mod:`repro.simcore.context`) in milliseconds.

Float-fold exactness
--------------------

The reproduction's golden-parity guarantee rests on IEEE-754 addition
being replayed exactly: experiment outputs are folds like
``clock += latency`` and float addition is not associative.  The clock
therefore guarantees that ``advance(ns)`` computes **exactly**
``now + ns`` (one double addition, identical to the ``clock_ns += x``
folds it replaces), and ``advance_to``/``jump_to`` set the target value
**exactly** (no ``now + (target - now)`` rounding detour).  Event
dispatch never perturbs the accumulator: due events observe their
deadline, then the clock lands on the exact target.  ``advance`` on a
clock with an empty event queue (a scheduler's or a benchmark engine's
private clock) skips dispatch and stores ``now + ns`` directly: the same
single addition, so both branches land on bit-identical values.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional


class ClockError(ValueError):
    """Invalid clock operations (negative advances, past deadlines)."""


class ScheduledEvent:
    """One pending deadline on a :class:`VirtualClock`.

    Lifecycle: *pending* -> *fired* (dispatched by the clock) or
    *cancelled* (by the holder), never both.  ``cancel()`` after dispatch
    returns ``False`` -- the callback has already run, so callers must
    not believe they prevented it.
    """

    __slots__ = ("deadline_ns", "seq", "callback", "cancelled", "fired",
                 "_clock")

    def __init__(self, deadline_ns: float, seq: int,
                 callback: Optional[Callable[[], None]],
                 clock: Optional["VirtualClock"] = None) -> None:
        self.deadline_ns = deadline_ns
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._clock = clock

    def cancel(self) -> bool:
        """Cancel the event; returns False if it already fired/cancelled."""
        if self.cancelled or self.fired:
            return False
        self.cancelled = True
        if self._clock is not None:
            self._clock._note_cancelled()
        return True

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.deadline_ns, self.seq) < (other.deadline_ns, other.seq)


class VirtualClock:
    """Monotonic simulated time in nanoseconds, with deadlines.

    Single-threaded, like every simulator in the process: callbacks run
    at the moment the clock sits exactly on the event's deadline, and may
    re-enter the clock.
    """

    #: Heap-compaction floor: cancelled entries are swept out only once the
    #: queue is at least this large *and* more than half cancelled
    #: (asyncio-style), so tiny queues never pay repeated heapify costs.
    COMPACT_MIN_EVENTS = 64

    def __init__(self, start_ns: float = 0.0) -> None:
        self._now_ns = float(start_ns)
        self._events: List[ScheduledEvent] = []
        self._seq = itertools.count()
        self._cancelled_count = 0

    # -- reading -----------------------------------------------------------

    @property
    def now_ns(self) -> float:
        return self._now_ns

    @property
    def now_ms(self) -> float:
        return self._now_ns / 1e6

    @property
    def pending_events(self) -> int:
        return len(self._events) - self._cancelled_count

    def next_deadline_ns(self) -> Optional[float]:
        """The earliest pending (non-cancelled) deadline, or None.

        The closed-form fast-forward hook: an idle guest's next event is
        this instant, so the fleet event core can land on it with one
        ``advance_to`` instead of stepping (see
        :mod:`repro.simcore.eventcore`).
        """
        self._skim_cancelled()
        return self._events[0].deadline_ns if self._events else None

    # -- advancing ---------------------------------------------------------

    def advance(self, ns: float) -> float:
        """Advance by *ns* >= 0 nanoseconds; returns the new now.

        Exactness: the final value is exactly ``now + ns`` (one double
        addition), regardless of how many events fire on the way -- or
        whether any is armed: with an empty queue there is nothing to
        dispatch, so the addition is stored without the dispatch loop.
        """
        if ns < 0:
            raise ClockError(f"virtual time cannot go backwards ({ns} ns)")
        if not self._events:
            self._now_ns += ns
            return self._now_ns
        return self._run_to(self._now_ns + ns)

    def advance_ms(self, ms: float) -> float:
        """Advance by *ms* milliseconds; returns the new now in ms."""
        if ms < 0:
            raise ClockError(f"virtual time cannot go backwards ({ms} ms)")
        return self.advance(ms * 1e6) / 1e6

    def advance_to(self, target_ns: float) -> float:
        """Advance to exactly *target_ns* (>= now); fires due events."""
        if target_ns < self._now_ns:
            raise ClockError(
                f"advance_to({target_ns}) is in the past "
                f"(now {self._now_ns})"
            )
        return self._run_to(target_ns)

    def jump_to(self, value_ns: float) -> float:
        """Set the clock to exactly *value_ns*, forwards or backwards.

        Forward jumps behave like :meth:`advance_to` (due events fire);
        backward jumps rebase the accumulator administratively -- what
        ``SyscallEngine.reset_clock`` does -- leaving pending events
        armed at their absolute deadlines.
        """
        if value_ns < self._now_ns:
            self._now_ns = float(value_ns)
            return self._now_ns
        return self._run_to(value_ns)

    def reset(self) -> None:
        """Rewind to zero and drop all pending events (test isolation).

        Dropped events are marked cancelled: a holder's later ``cancel()``
        returns False and leaves :attr:`pending_events` alone, since the
        heap no longer holds the entry it would account for.
        """
        for event in self._events:
            event.cancelled = True
        self._now_ns = 0.0
        self._events.clear()
        self._cancelled_count = 0

    # -- deadlines ---------------------------------------------------------

    def call_at(self, deadline_ns: float,
                callback: Optional[Callable[[], None]] = None
                ) -> ScheduledEvent:
        """Schedule *callback* to fire when the clock reaches *deadline_ns*."""
        if deadline_ns < self._now_ns:
            raise ClockError(
                f"deadline {deadline_ns} is in the past "
                f"(now {self._now_ns})"
            )
        event = ScheduledEvent(
            deadline_ns, next(self._seq), callback, clock=self
        )
        heapq.heappush(self._events, event)
        return event

    def call_after(self, delay_ns: float,
                   callback: Optional[Callable[[], None]] = None
                   ) -> ScheduledEvent:
        """Schedule *callback* to fire *delay_ns* >= 0 from now."""
        if delay_ns < 0:
            raise ClockError(f"cannot schedule {delay_ns} ns in the past")
        return self.call_at(self._now_ns + delay_ns, callback)

    # -- internals ---------------------------------------------------------

    def _run_to(self, target_ns: float) -> float:
        """Move to exactly *target_ns*, firing due events in deadline order.

        Callbacks may re-enter the clock (schedule, cancel, read now).
        """
        while True:
            self._skim_cancelled()
            if self._events and self._events[0].deadline_ns <= target_ns:
                event = heapq.heappop(self._events)
                # Mark *before* the callback runs: a cancel() from inside
                # the callback (or any later one) must report False -- the
                # event has been dispatched.
                event.fired = True
                # The callback observes the clock *at* its deadline.
                self._now_ns = event.deadline_ns
                if event.callback is not None:
                    event.callback()
            else:
                self._now_ns = target_ns
                break
        return target_ns

    def _skim_cancelled(self) -> None:
        """Drop cancelled events sitting at the top of the heap."""
        while self._events and self._events[0].cancelled:
            heapq.heappop(self._events)
            self._cancelled_count -= 1

    def _note_cancelled(self) -> None:
        """Bookkeep one cancellation; compact when the heap is mostly dead.

        Cancelled events used to linger until their deadline was reached
        -- cancelled 2MSL timers from fast TCP closes accumulated for a
        whole run.  asyncio-style: once cancelled entries exceed half of
        a non-trivial queue, rebuild the heap from the live entries.
        """
        self._cancelled_count += 1
        if (len(self._events) >= self.COMPACT_MIN_EVENTS
                and self._cancelled_count * 2 > len(self._events)):
            self._events = [e for e in self._events if not e.cancelled]
            heapq.heapify(self._events)
            self._cancelled_count = 0
