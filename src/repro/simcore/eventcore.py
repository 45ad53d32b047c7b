"""The event core: one global heap over every guest timeline.

A serving run (:mod:`repro.traffic`) drives many guests at once, each on
its own :class:`~repro.simcore.clock.VirtualClock`, next to an arrivals
timeline and the supervisor.  Cross-guest causality (warm-pool routing,
staggered cold boots, correlated fault schedules) needs a global order
between two guests' events.  :class:`EventCore` keeps one heap of the
instants its programs wait for and dispatches guests in **virtual-time
order**: at every step the runnable guest with the smallest virtual
instant runs its next lifecycle stage.  Events across the whole fleet
have a single well-defined global order (ties broken by dispatch
sequence number, so runs are deterministic).  The heap is the only
place a program waits; a clock only accumulates time.

Guest programs
--------------

A guest registers as a *program*: a generator whose ``next()`` runs one
lifecycle stage (build, boot, one request, a retirement) and
advances the guest's own clock.  The yielded value tells the core when
the guest is next runnable:

- ``yield None`` -- runnable immediately, at the guest's current virtual
  instant (CPU-bound stages);
- ``yield deadline_ns`` -- **idle** until an absolute virtual instant
  (an idle timeout, the next trace arrival).  The core keys the guest at
  that instant in the global heap, and when it becomes the earliest
  event fast-forwards the guest's clock there **in closed form** -- one
  ``advance_to``, never stepping.  This is the ``invoke_batch`` fold
  applied *across* guests: within a guest, batched serving folds a whole
  jitter period in one call; across guests, idle time folds into one
  jump.
- ``yield PARK`` -- **parked indefinitely**: the guest leaves the heap
  entirely and is not runnable again until another program calls
  :meth:`EventCore.kick`.  This is how a warm serving guest waits for
  traffic without holding a deadline: the router wakes it when a
  request arrives, and ``run()`` returning with parked guests still
  registered means the fleet is *quiescent*, not finished -- the caller
  may kick them (e.g. to retire) and ``run()`` again.

Serving extensions (the ``repro.traffic`` layer drives these):

- :meth:`EventCore.spawn` takes ``start_ns`` so a guest cold-booted in
  reaction to an arrival first dispatches *at the arrival instant* --
  the core fast-forwards the fresh clock there, aligning the guest's
  timeline with global time before its build/boot stages run;
- :meth:`EventCore.kick` re-arms a registered guest at an instant,
  whether it is parked or waiting on a (later) deadline.  A kick
  supersedes the pending heap entry via a per-runner generation
  counter: the stale entry is skipped on pop without counting as a
  dispatch, so wake-ups never double-run a guest;
- :meth:`EventCore.next_key` peeks at the earliest live instant and
  :meth:`EventCore.defer_kick` re-arms a guest *behind* the running
  program's own next entry.  Together they let a program run another
  guest's stage inside its own dispatch when the core would have
  dispatched that stage next anyway (the router's warm-hit fold, see
  :mod:`repro.traffic.router`), with every later tie resolving as it
  would have in the stepped order;
- :meth:`EventCore.runs_next` tells the running program whether an
  entry it yielded at an instant would be popped straight back.  When
  it would, the program may skip the yield and, after
  :meth:`EventCore.flush_deferred`, run its next stage in place: the
  push, flush and pop of the stepped order, minus the entry.  That is
  how the arrivals program serves consecutive trace arrivals inside
  one event (:mod:`repro.traffic.serve`).

Determinism: the heap is keyed ``(virtual_ns, seq)`` with ``seq`` a
monotone counter and programs run on one thread, so the same spawns
dispatch in the same global order on every run -- what lets a serving
run's manifest digest reproduce byte-for-byte (the ``bench-serve``
gate).

Fault injection: each dispatch is a :func:`~repro.faults.plane.fault_site`
(``eventcore.dispatch``) entered inside the dispatched guest's clock
scope, so a correlated cross-guest fault schedule has a well-defined
global order and an injected hang advances exactly the afflicted
guest's timeline.  An injected fault is *contained*: the afflicted
runner dies with a structured record (``EventCore.failures``, the
``guest_failures`` counter, the optional ``on_failure`` callback) while
the rest of the fleet keeps running -- one poisoned guest must not take
the event loop down.  Non-injected exceptions still propagate.

Clock discipline: fleet code paths must not construct
:class:`VirtualClock` directly -- guests obtain their clock from
:meth:`EventCore.clock_for` (enforced by ``tools/lint_time.py``'s
``no-direct-clock-in-fleet`` rule), so every fleet timeline is
registered with, and order-visible to, the core.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.simcore.clock import VirtualClock


class _ParkSentinel:
    """The :data:`PARK` singleton (its own type, so yields are explicit)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PARK"


#: Yield this from a guest program to park indefinitely: the runner
#: leaves the global heap until a ``kick`` re-arms it.
PARK = _ParkSentinel()

#: A guest lifecycle program: ``next()`` runs one stage; yields ``None``
#: (runnable now), an absolute virtual deadline (idle until then), or
#: :data:`PARK` (off the heap until kicked).
GuestProgram = Generator[Optional[float], None, None]


class EventCoreError(RuntimeError):
    """Invalid event-core operations (duplicate guests, time reversal)."""


@dataclass
class _Runner:
    """One registered guest: its clock plus its lifecycle program."""

    name: str
    clock: VirtualClock
    program: GuestProgram
    done: bool = False
    #: Bumped by every kick; heap entries carry the generation they were
    #: pushed under, so superseded entries are skipped on pop.
    gen: int = 0


@dataclass
class EventCoreStats:
    """Counters one :meth:`EventCore.run` produced (manifest-external)."""

    events_dispatched: int = 0
    guests_fast_forwarded: int = 0
    heap_high_water: int = 0
    guests: int = 0
    parks: int = 0
    kicks: int = 0
    #: Runners killed by a contained dispatch fault (structured failure
    #: outcomes, mirroring ``harness.fingerprint_errors``).
    guest_failures: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "events_dispatched": self.events_dispatched,
            "guests_fast_forwarded": self.guests_fast_forwarded,
            "heap_high_water": self.heap_high_water,
            "guests": self.guests,
            "parks": self.parks,
            "kicks": self.kicks,
            "guest_failures": self.guest_failures,
        }


@dataclass
class EventCore:
    """The global event loop for a fleet of guests.

    Usage::

        core = EventCore()
        for spec in specs:
            guest = Guest(spec, clock=core.clock_for(spec.name))
            core.spawn(spec.name, lifecycle_program(guest))
        core.run()

    One core = one fleet = one global virtual-order; cores are
    single-threaded and not reusable across fleets (register a fresh one
    per run, like a fresh heap per simulation).
    """

    _clocks: Dict[str, VirtualClock] = field(default_factory=dict)
    _runners: Dict[str, _Runner] = field(default_factory=dict)
    _heap: List[Tuple[float, int, int, "_Runner"]] = field(
        default_factory=list
    )
    _seq: "itertools.count" = field(default_factory=itertools.count)
    stats: EventCoreStats = field(default_factory=EventCoreStats)
    #: Stats already folded into METRICS (``run()`` publishes deltas, so
    #: quiesce-then-resume runs never double-count).
    _published: EventCoreStats = field(default_factory=EventCoreStats)
    #: Contained per-runner dispatch faults, in dispatch order: the
    #: structured record of every runner ``run()`` killed.
    failures: List[Tuple[str, BaseException]] = field(default_factory=list)
    #: Called as ``on_failure(name, error)`` after a dispatch fault kills
    #: a runner -- the serving router uses this to fail over the dead
    #: worker's queued requests.
    on_failure: Optional[Callable[[str, BaseException], None]] = None
    #: ``(key_ns, gen, runner)`` entries of :meth:`defer_kick`, pushed
    #: once the running dispatch has pushed its own next entry.
    _deferred: List[Tuple[float, int, "_Runner"]] = field(
        default_factory=list
    )

    # -- registration ------------------------------------------------------

    def clock_for(self, name: str) -> VirtualClock:
        """The virtual clock for guest *name* (created on first use).

        Fleet code obtains guest clocks exclusively through this method
        -- the lint forbids direct ``VirtualClock()`` construction in
        fleet paths -- so every timeline the fleet runs on is known to
        the core.
        """
        if name not in self._clocks:
            self._clocks[name] = VirtualClock()
        return self._clocks[name]

    def spawn(self, name: str, program: GuestProgram,
              start_ns: Optional[float] = None) -> None:
        """Register guest *name*'s lifecycle *program* with the core.

        ``start_ns`` arms the first dispatch at an absolute virtual
        instant instead of the guest clock's current one -- the
        cold-boot path: a guest spawned in reaction to an arrival at
        global time T first runs *at* T, and the core fast-forwards its
        fresh clock there before the build stage executes.  Spawning
        mid-``run()`` is legal (the heap absorbs new entries).
        """
        if name in self._runners:
            raise EventCoreError(f"guest {name!r} already registered")
        runner = _Runner(name=name, clock=self.clock_for(name),
                         program=program)
        self._runners[name] = runner
        self.stats.guests += 1
        key_ns = runner.clock.now_ns
        if start_ns is not None:
            key_ns = max(float(start_ns), key_ns)
        self._push(key_ns, runner)

    # -- wake-up surface ---------------------------------------------------

    def kick(self, name: str, at_ns: float) -> None:
        """Re-arm guest *name* to dispatch at ``at_ns`` (clamped to its now).

        Works whether the guest is parked or pending on a (typically
        later) deadline: the runner's generation counter is bumped, so
        any entry already in the heap is superseded -- skipped on pop
        without counting as a dispatch.  The serving router uses this to
        hand a warm guest a request: pop it from the pool, enqueue the
        work, kick it at the arrival instant.
        """
        runner = self._rearm(name)
        self._push(max(float(at_ns), runner.clock.now_ns), runner)

    def defer_kick(self, name: str, at_ns: float) -> None:
        """:meth:`kick`, with the heap entry pushed after the running
        program's own next entry.

        A stage that ran inside another program's dispatch (the router
        serving a warm hit inside its arrival's event) re-arms its guest
        with this, so the entry takes the heap position the stepped
        event would have: behind the dispatching program's next entry
        when the keys tie.  The generation bump is immediate; the push
        happens when the dispatch ends, however it ends -- a yield, a
        return, or a contained fault.  Outside ``run()`` the entry is
        pushed when ``run()`` next starts.
        """
        runner = self._rearm(name)
        self._deferred.append(
            (max(float(at_ns), runner.clock.now_ns), runner.gen, runner)
        )

    def next_key(self) -> Optional[float]:
        """The earliest live heap key, or None when nothing is pending.

        Stale entries (superseded by a kick, or of a finished runner) at
        the top are dropped on the way, as ``run()`` would drop them --
        neither counts as a dispatch.  Entries :meth:`defer_kick` holds
        back are not in the heap yet.
        """
        heap = self._heap
        while heap:
            key_ns, _, gen, runner = heap[0]
            if not runner.done and gen == runner.gen:
                return key_ns
            heapq.heappop(heap)
        return None

    def runs_next(self, key_ns: float) -> bool:
        """Whether an entry the running program yields at ``key_ns``
        would be the next one popped.

        Every live heap key must be strictly later: entries already in
        the heap carry smaller sequence numbers, so they win a tie.  No
        deferred entry may be strictly earlier: :meth:`defer_kick`
        pushes behind the program's own entry, so the program wins a
        tie.  A superseded deferred entry still counts, so a stale
        entry can turn a True into a False, never the reverse.
        """
        next_key = self.next_key()
        if next_key is not None and next_key <= key_ns:
            return False
        for deferred_ns, _, _ in self._deferred:
            if deferred_ns < key_ns:
                return False
        return True

    def flush_deferred(self) -> None:
        """Push the entries :meth:`defer_kick` holds back, in order.

        ``run()`` calls this after every dispatch, once the program has
        pushed its own next entry; a program continuing in place after
        :meth:`runs_next` calls it before its next stage.
        """
        deferred = self._deferred
        if deferred:
            for key_ns, gen, runner in deferred:
                self._push(key_ns, runner, gen)
            deferred.clear()

    def _rearm(self, name: str) -> "_Runner":
        """Bump *name*'s generation for a kick (superseding its entry)."""
        runner = self._runners.get(name)
        if runner is None or runner.done:
            raise EventCoreError(f"guest {name!r} is not registered/alive")
        runner.gen += 1
        self.stats.kicks += 1
        return runner

    # -- the loop ----------------------------------------------------------

    def run(self) -> EventCoreStats:
        """Dispatch the merged heap until it empties.

        Kicks a dispatch deferred (:meth:`defer_kick`) are pushed as it
        ends, before the next pop.  The heap empties when every program
        has completed *or parked*:
        a return with parked runners means the fleet is quiescent, and
        the caller may :meth:`kick` them and ``run()`` again -- stats
        accumulate across resumed runs, and the metrics registry
        receives only the delta each run produced.

        Returns (and publishes to the metrics registry) the per-core
        counters: events dispatched, guests fast-forwarded in closed
        form, parks/kicks, and the heap's high-water mark.
        """
        from repro.faults.plane import FaultInjected, fault_site
        from repro.simcore.context import use_clock

        while self._heap or self._deferred:
            # The last dispatch ended (and pushed its own next entry, if
            # any): the kicks it deferred land behind it.
            self.flush_deferred()
            key_ns, _, gen, runner = heapq.heappop(self._heap)
            if runner.done or gen != runner.gen:
                # Superseded by a kick (or retired): a stale entry, not
                # a dispatch.
                continue
            self.stats.events_dispatched += 1
            if key_ns > runner.clock.now_ns:
                # Idle guest whose deadline is now the earliest fleet
                # event: land on it in one closed-form jump.
                self.stats.guests_fast_forwarded += 1
                runner.clock.advance_to(key_ns)
            try:
                with use_clock(runner.clock):
                    with fault_site("eventcore.dispatch"):
                        idle_until = next(runner.program)
            except StopIteration:
                runner.done = True
                continue
            except FaultInjected as error:
                # Containment, not swallowing: the runner dies with a
                # structured failure record and a counter, the rest of
                # the fleet keeps running.  Anything that is *not* an
                # injected fault still propagates -- a real bug should
                # crash the run, loudly.
                runner.done = True
                self.stats.guest_failures += 1
                self.failures.append((runner.name, error))
                if self.on_failure is not None:
                    self.on_failure(runner.name, error)
                continue
            if idle_until is PARK:
                self.stats.parks += 1
                continue
            next_key = (runner.clock.now_ns if idle_until is None
                        else float(idle_until))
            if next_key < runner.clock.now_ns:
                raise EventCoreError(
                    f"guest {runner.name!r} yielded deadline {next_key} "
                    f"behind its own clock ({runner.clock.now_ns})"
                )
            self._push(next_key, runner)
        self._publish()
        return self.stats

    # -- internals ---------------------------------------------------------

    def _push(self, key_ns: float, runner: _Runner,
              gen: Optional[int] = None) -> None:
        heapq.heappush(self._heap, (
            key_ns, next(self._seq), runner.gen if gen is None else gen,
            runner,
        ))
        if len(self._heap) > self.stats.heap_high_water:
            self.stats.heap_high_water = len(self._heap)

    def _publish(self) -> None:
        # Imported here: repro.observe imports simcore (clock/context),
        # so a module-level import would cycle.
        from repro.observe import METRICS

        METRICS.counter("eventcore.events_dispatched").inc(
            self.stats.events_dispatched - self._published.events_dispatched
        )
        METRICS.counter("eventcore.guests_fast_forwarded").inc(
            self.stats.guests_fast_forwarded
            - self._published.guests_fast_forwarded
        )
        METRICS.counter("eventcore.parks").inc(
            self.stats.parks - self._published.parks
        )
        METRICS.counter("eventcore.kicks").inc(
            self.stats.kicks - self._published.kicks
        )
        METRICS.counter("eventcore.guest_failures").inc(
            self.stats.guest_failures - self._published.guest_failures
        )
        METRICS.gauge("eventcore.heap_high_water").set(
            float(self.stats.heap_high_water)
        )
        self._published = EventCoreStats(**self.stats.to_dict())

