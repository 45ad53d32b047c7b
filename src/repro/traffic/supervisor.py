"""The self-healing control plane: watchdogs, restarts, quarantine.

The paper's graceful-degradation story is that a Lupine guest is just a
Linux process -- the host can kill, restart, and respawn it cheaply.
This module is that story at fleet scale: a :class:`Supervisor` runs as
one more :class:`~repro.simcore.eventcore.EventCore` program (its own
clock, its own deadlines on the one global heap) and reacts to guest
failures the router observes:

- **Watchdogs.**  A hung guest (the ``guest.hang`` fault site) parks
  with its request in flight; the supervisor arms a virtual-time
  watchdog deadline and, when it fires, kicks the guest awake into its
  kill path.  Nothing polls -- the watchdog is an event like any other.
- **Restarts with exponential backoff.**  Every guest failure schedules
  a restart probe at ``restart_backoff_s * backoff_multiplier**(n-1)``
  (capped at ``max_backoff_s``, ``n`` = the app's consecutive-failure
  streak).  When the probe fires, the router cold-boots a replacement
  through the full ``GuestSpec -> build -> boot`` path -- but only if
  the app still has queued work, capacity, and no quarantine.
- **Crash-loop quarantine.**  ``crash_loop_threshold`` failures inside
  ``crash_loop_window_s`` -- or that many *consecutive* failures at any
  spacing, so a persistent failure whose backoff outgrows the window
  still converges -- quarantine the app for ``quarantine_s``: its
  backlog fails, its pool tears down, and new arrivals shed until the
  lift event fires.
- **Circuit breakers.**  Per-app :class:`CircuitBreaker` admission
  (closed -> open on windowed error rate -> half-open single probe on a
  cooldown timer -> closed) so a failing app degrades to fast shedding
  instead of queue collapse.

Everything is driven by virtual-time events and deterministic state, so
a faulted serving run is exactly as replayable as a fault-free one --
the contract ``bench-serve``'s faulted scenarios gate (see
``docs/RESILIENCE.md``).
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from repro.simcore.eventcore import PARK, EventCore, EventCoreError


@dataclass(frozen=True)
class ResiliencePolicy:
    """Failure-handling knobs for one serving run (manifest-canonical).

    - ``watchdog_s``: how long a hung guest may stall before the
      supervisor kills it and re-dispatches its request;
    - ``retry_budget``: failed attempts a request may retry past the
      first (budget exhausted => the request counts as an error);
    - ``restart_backoff_s`` / ``backoff_multiplier`` / ``max_backoff_s``:
      exponential restart-probe schedule per consecutive failure;
    - ``crash_loop_threshold`` / ``crash_loop_window_s`` /
      ``quarantine_s``: K failures in a window quarantine the app;
    - ``breaker_*``: per-app circuit breaker (windowed error-rate trip,
      cooldown to half-open, one probe);
    - ``shed_queue_depth``: per-app backlog bound past which arrivals
      are shed -- a request queued that deep has already missed any
      deadline worth keeping, so reject it up front.
    """

    name: str = "default"
    watchdog_s: float = 0.5
    retry_budget: int = 2
    restart_backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 2.0
    crash_loop_threshold: int = 8
    crash_loop_window_s: float = 2.0
    quarantine_s: float = 5.0
    breaker_window: int = 32
    breaker_min_samples: int = 16
    breaker_threshold: float = 0.5
    breaker_cooldown_s: float = 1.0
    shed_queue_depth: int = 256

    def __post_init__(self) -> None:
        if self.watchdog_s <= 0.0:
            raise ValueError("watchdog_s must be positive")
        if self.retry_budget < 0:
            raise ValueError("retry_budget cannot be negative")
        if self.restart_backoff_s <= 0.0 or self.max_backoff_s <= 0.0:
            raise ValueError("restart backoffs must be positive")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1.0")
        if self.crash_loop_threshold < 1:
            raise ValueError("crash_loop_threshold must be at least 1")
        if self.crash_loop_window_s <= 0.0 or self.quarantine_s <= 0.0:
            raise ValueError("crash-loop window/quarantine must be positive")
        if self.breaker_window < 1 or self.breaker_min_samples < 1:
            raise ValueError("breaker windows must be at least 1")
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError("breaker_threshold must be in (0, 1]")
        if self.breaker_cooldown_s <= 0.0:
            raise ValueError("breaker_cooldown_s must be positive")
        if self.shed_queue_depth < 1:
            raise ValueError("shed_queue_depth must be at least 1")

    def with_overrides(self, **overrides: object) -> "ResiliencePolicy":
        """A copy with selected fields replaced (CLI knobs)."""
        return dataclasses.replace(self, **overrides)

    def to_manifest(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "watchdog_s": self.watchdog_s,
            "retry_budget": self.retry_budget,
            "restart_backoff_s": self.restart_backoff_s,
            "backoff_multiplier": self.backoff_multiplier,
            "max_backoff_s": self.max_backoff_s,
            "crash_loop_threshold": self.crash_loop_threshold,
            "crash_loop_window_s": self.crash_loop_window_s,
            "quarantine_s": self.quarantine_s,
            "breaker_window": self.breaker_window,
            "breaker_min_samples": self.breaker_min_samples,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown_s": self.breaker_cooldown_s,
            "shed_queue_depth": self.shed_queue_depth,
        }


#: The default knobs every :class:`~repro.traffic.serve.ServeSpec` gets.
DEFAULT_RESILIENCE = ResiliencePolicy()


class CircuitBreaker:
    """Per-app admission control: ``closed -> open -> half_open -> closed``.

    Outcomes of *settled* requests (completed or failed -- shed requests
    were never attempted) feed a sliding window; once the window holds at
    least ``breaker_min_samples`` outcomes with a failure fraction at or
    above ``breaker_threshold``, the breaker opens and arrivals shed
    immediately.  After ``breaker_cooldown_s`` the next arrival is
    admitted as the half-open *probe*; its outcome closes the breaker or
    re-opens it for another cooldown.  All state is virtual-time and
    deterministic.  The window's failures are counted as they enter and
    leave it, so a settled request never re-sums the window.
    """

    def __init__(self, policy: ResiliencePolicy) -> None:
        self.policy = policy
        self.state = "closed"
        self.opens = 0
        self._outcomes: Deque[bool] = deque(maxlen=policy.breaker_window)
        #: Failures in ``_outcomes``.
        self._failures = 0
        self._opened_ns = 0.0

    def admit(self, at_ns: float) -> bool:
        """Whether to admit an arrival at ``at_ns`` (may start the probe)."""
        if self.state == "closed":
            return True
        if self.state == "open":
            cooldown_ns = self.policy.breaker_cooldown_s * 1e9
            if at_ns >= self._opened_ns + cooldown_ns:
                self.state = "half_open"
                return True  # the single half-open probe
            return False
        return False  # half_open: the probe is still in flight

    def record(self, failed: bool, at_ns: float) -> None:
        """Feed one settled request outcome (True = it failed)."""
        if self.state == "half_open":
            if failed:
                self._trip(at_ns)
            else:
                self.state = "closed"
                self._clear()
            return
        if self.state == "open":
            return  # a straggler settling after the trip
        outcomes = self._outcomes
        if len(outcomes) == outcomes.maxlen and outcomes[0]:
            self._failures -= 1  # the append below evicts a failure
        outcomes.append(failed)
        if failed:
            self._failures += 1
        if (len(outcomes) >= self.policy.breaker_min_samples
                and (self._failures / len(outcomes)
                     >= self.policy.breaker_threshold)):
            self._trip(at_ns)

    def _trip(self, at_ns: float) -> None:
        self.state = "open"
        self.opens += 1
        self._opened_ns = at_ns
        self._clear()

    def _clear(self) -> None:
        self._outcomes.clear()
        self._failures = 0


class Supervisor:
    """Failure detection and recovery, as one :class:`EventCore` program.

    The supervisor owns a private deadline heap (watchdogs, restart
    probes, quarantine lifts) and mirrors it onto the global event heap:
    it always waits on its earliest pending event (``yield deadline``)
    or parks when it has none, and other programs wake it with
    :meth:`EventCore.kick` only when they insert an event *earlier* than
    the one it is armed on -- a later insert is picked up naturally when
    the armed deadline fires.  That discipline keeps the global order
    exact: a kick supersedes the pending heap entry, so kicking for a
    later event would silently delay an earlier one.
    """

    NAME = "supervisor"

    def __init__(self, core: EventCore, router) -> None:
        self.core = core
        self.router = router
        self.policy: ResiliencePolicy = router.resilience
        self.quarantines = 0
        #: Kicks the supervisor could not deliver because its own runner
        #: was killed by a contained dispatch fault (structured outcome,
        #: never silently swallowed).
        self.notify_failures = 0
        self.stopped = False
        self.dead = False
        self._events: List[Tuple[float, int, str, object]] = []
        self._eseq = itertools.count()
        self._failures: Dict[str, Deque[float]] = {}
        self._streak: Dict[str, int] = {}
        self._quarantined_until: Dict[str, float] = {}
        self._armed_ns: float = math.inf
        self._parked = False
        self._started = False

    def start(self) -> None:
        """Register the supervisor program with the core."""
        self._started = True
        self.core.spawn(self.NAME, self._program())

    def stop(self) -> None:
        """Finalize: pending restart probes become no-ops."""
        self.stopped = True

    # -- router-facing surface ---------------------------------------------

    def quarantined(self, app: str, at_ns: float) -> bool:
        """Whether *app*'s pool is quarantined at virtual instant *at_ns*."""
        until = self._quarantined_until.get(app)
        return until is not None and at_ns < until

    def record_success(self, app: str) -> None:
        """A served request resets the app's consecutive-failure streak."""
        self._streak[app] = 0

    def watch(self, worker, at_ns: float) -> None:
        """Arm a watchdog killing *worker* if it is still hung at deadline."""
        deadline = at_ns + self.policy.watchdog_s * 1e9
        self._push(deadline, "watchdog", worker)

    def record_failure(self, app: str, at_ns: float) -> None:
        """One guest of *app* failed: window it, quarantine or schedule a
        backoff restart probe."""
        window = self._failures.setdefault(app, deque())
        horizon = at_ns - self.policy.crash_loop_window_s * 1e9
        while window and window[0] < horizon:
            window.popleft()
        window.append(at_ns)
        self._streak[app] = self._streak.get(app, 0) + 1
        if self.quarantined(app, at_ns):
            return  # in-flight stragglers of an already-quarantined app
        # Quarantine on K failures inside the window, OR on K
        # *consecutive* failures at any spacing: a persistent failure
        # whose backoff outgrows the window must still converge to
        # quarantine instead of probing forever.
        if (len(window) >= self.policy.crash_loop_threshold
                or self._streak[app] >= self.policy.crash_loop_threshold):
            self._quarantine(app, at_ns)
            return
        self._push(at_ns + self._backoff_ns(app), "restart", app)

    # -- internals ---------------------------------------------------------

    def _backoff_ns(self, app: str) -> float:
        exponent = max(0, self._streak.get(app, 1) - 1)
        try:
            delay_s = min(
                self.policy.restart_backoff_s
                * self.policy.backoff_multiplier ** exponent,
                self.policy.max_backoff_s,
            )
        except OverflowError:
            # A long enough crash streak overflows the float power; the
            # exact value is moot -- it is past the cap either way.
            delay_s = self.policy.max_backoff_s
        return delay_s * 1e9

    def _quarantine(self, app: str, at_ns: float) -> None:
        self.quarantines += 1
        until = at_ns + self.policy.quarantine_s * 1e9
        self._quarantined_until[app] = until
        self._failures[app].clear()
        self.router.flush_app(app, at_ns)
        self._push(until, "quarantine_lift", app)

    def _push(self, at_ns: float, kind: str, payload: object) -> None:
        heapq.heappush(
            self._events, (float(at_ns), next(self._eseq), kind, payload)
        )
        self._notify(float(at_ns))

    def _notify(self, at_ns: float) -> None:
        if self.dead or not self._started:
            return
        if self._parked or at_ns < self._armed_ns:
            try:
                self.core.kick(self.NAME, at_ns)
            except EventCoreError:
                # The supervisor's own runner was killed by a contained
                # eventcore.dispatch fault; finalize mops up hung guests.
                self.dead = True
                self.notify_failures += 1
                return
            self._armed_ns = at_ns
            self._parked = False

    def _process(self, now_ns: float) -> None:
        while self._events and self._events[0][0] <= now_ns:
            at_ns, _, kind, payload = heapq.heappop(self._events)
            if kind == "watchdog":
                self.router.watchdog_fire(payload, at_ns)
            elif kind == "restart":
                if not self.stopped:
                    self.router.restart(payload, at_ns)
            else:  # quarantine_lift
                app = payload
                self._quarantined_until.pop(app, None)
                self._failures.setdefault(app, deque()).clear()
                self._streak[app] = 0

    def _program(self):
        clock = self.core.clock_for(self.NAME)
        while True:
            self._process(clock.now_ns)
            if self._events:
                self._armed_ns = self._events[0][0]
                self._parked = False
                yield self._armed_ns
            else:
                self._armed_ns = math.inf
                self._parked = True
                yield PARK
            self._parked = False
