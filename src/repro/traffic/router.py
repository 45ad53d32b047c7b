"""The request router: warm-pool dispatch, cold boots, failure recovery.

One :class:`Router` per serving run.  Each arrival goes to the warm pool
of its app (guests are per-app, so the kernel variant is implied by the
run's :class:`~repro.core.orchestrator.KernelPolicy` through
``KernelOrchestrator.variant_for``); on a miss the router cold-boots a
fresh guest through the full ``GuestSpec -> build -> boot`` pipeline --
the paper's Fig 7 boot cost, landing inside that request's latency --
and at capacity the arrival queues FIFO behind its app.

Workers are :class:`EventCore` programs.  An idle worker enters the
app's warm pool (LIFO, for keepalive locality) and either yields its
idle timeout as a virtual deadline or yields ``PARK``.  A timed-out
worker retires -- full ``shutdown`` -- unless the policy's ``min_warm``
floor pins it, in which case it parks until kicked.  All of it is virtual-time
events on the one global heap; nothing polls.

A warm hit is normally served inside its arrival's own event (the
*fold*, :meth:`Router._serve_inline`): when no fault plane is installed
and the core would run the worker's wake-and-serve step and then its
return-to-pool step straight after the arrival anyway, the router runs
both itself -- the same ``_serve_one``, the same float additions, the
same pool order -- and re-arms the worker where its own events would
have sat in the heap.  Waking the worker with :meth:`EventCore.kick` is
the fallback, and the general path: cold boots, queueing, retries,
faults and same-instant events all take it.  Under an installed fault
plane, even an empty one, every warm hit takes it, which makes the
empty-plane rerun of a spec the fold's differential oracle.

Failure model (PR 9).  The serving path itself can now break, through
three seeded :func:`~repro.faults.plane.fault_site` sites evaluated on
the guest's own clock:

- ``guest.boot_fail`` -- the cold boot fails (the paper's
  corrupted-image case): the worker dies before serving anything;
- ``guest.crash`` -- the guest dies mid-request: its in-flight request
  and inbox fail over;
- ``guest.hang`` -- the request stalls: the worker parks with the
  request in flight until the supervisor's watchdog deadline kills it.

Every failed request is re-dispatched up to the
:class:`~repro.traffic.supervisor.ResiliencePolicy` retry budget (warm
pool or backlog only -- replacement *capacity* comes from the
supervisor's backoff-timed restart probes, or from fresh arrivals), then
counts as an error.  Arrivals shed instead of queueing when the app is
quarantined, its circuit breaker is open, or its backlog exceeds the
shed bound.  Each request settles in **exactly one** terminal
disposition -- completed, failed, shed, or dropped -- which is the
request-conservation identity the hypothesis tests pin:
``arrivals == completed + failed + shed + dropped``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.faults import active_plane
from repro.simcore.eventcore import PARK, EventCore
from repro.traffic.arrivals import Arrival, ArrivalSource
from repro.traffic.policy import WarmPoolPolicy
from repro.traffic.supervisor import (
    DEFAULT_RESILIENCE,
    CircuitBreaker,
    ResiliencePolicy,
    Supervisor,
)


class ServingInvariantError(RuntimeError):
    """A request-conservation invariant broke (always a bug, never load)."""


@dataclass(eq=False)  # identity semantics: each request settles once
class Request:
    """One admitted arrival's mutable serving state."""

    arrival: Arrival
    #: Failed delivery attempts so far (retry budget is judged on this).
    failures: int = 0
    #: Terminal outcome: "completed" | "failed" | "shed" (set exactly once).
    disposition: Optional[str] = None


@dataclass(eq=False)  # identity semantics: pool membership is per-object
class GuestWorker:
    """One serving guest: lifecycle state the router tracks around it."""

    name: str
    app: str
    guest: object
    #: Virtual instant the worker was spawned (arrival time for cold
    #: boots, zero for pre-warmed workers).
    spawn_ns: float
    #: Whether the first request this worker serves is a cold start.
    cold_pending: bool
    inbox: Deque[Request] = field(default_factory=deque)
    #: The request being attempted (or stalled on, for a hung worker).
    current: Optional[Request] = None
    boot_ms: float = 0.0
    served: int = 0
    retiring: bool = False
    retired: bool = False
    #: Killed by a failure (crash/hang/boot_fail) rather than retired.
    failed: bool = False
    #: Stalled on an injected hang, awaiting the watchdog.
    hung: bool = False
    #: Suspended at the pool wait right after entering the pool: only
    #: such a worker may be served inline (see ``Router._serve_inline``).
    waiting: bool = False
    retire_ns: Optional[float] = None


class Router:
    """Dispatches arrivals across warm pools, cold boots, and queues."""

    def __init__(self, core: EventCore, orchestrator, policy: WarmPoolPolicy,
                 apps: List[str],
                 resilience: ResiliencePolicy = DEFAULT_RESILIENCE,
                 record_usage: bool = False) -> None:
        self.core = core
        self.orchestrator = orchestrator
        self.policy = policy
        self.resilience = resilience
        self.record_usage = record_usage
        self.apps = list(apps)
        self.pools: Dict[str, List[GuestWorker]] = {a: [] for a in self.apps}
        self.backlog: Dict[str, Deque[Request]] = {
            a: deque() for a in self.apps
        }
        self.live: Dict[str, int] = {a: 0 for a in self.apps}
        self.total_live = 0
        self.peak_live = 0
        self.workers: List[GuestWorker] = []
        #: Every served request's latency, in serving order.
        self.latencies_ns: List[float] = []
        #: Served requests and cold-served requests per app.
        self.served_by_app: Dict[str, int] = {a: 0 for a in self.apps}
        self.cold_by_app: Dict[str, int] = {a: 0 for a in self.apps}
        self.breakers: Dict[str, CircuitBreaker] = {
            a: CircuitBreaker(resilience) for a in self.apps
        }
        #: Wired by :func:`~repro.traffic.serve.run_serving`; the router
        #: never heals itself -- detection/restart policy lives there.
        self.supervisor: Optional[Supervisor] = None
        #: Wired by :func:`~repro.traffic.serve.run_serving`: the trace
        #: whose arrivals :meth:`dispatch` receives.  Warm hits fold into
        #: their arrival's event only with a source and no fault plane.
        self.source: Optional[ArrivalSource] = None
        self._fold = active_plane() is None
        self.arrivals = 0
        self.cold_starts = 0
        self.queued = 0
        self.queue_high_water = 0
        self.dropped = 0
        self.failed = 0
        self.shed = 0
        self.retries = 0
        self.restarts = 0
        self.guest_crashes = 0
        self.guest_hangs = 0
        self.boot_failures = 0
        self.watchdog_kills = 0
        self.failed_reasons: Dict[str, int] = {}
        self.shed_reasons: Dict[str, int] = {}
        self._finalizing = False
        self._by_name: Dict[str, GuestWorker] = {}
        self._profiles = {a: self._profile(a) for a in self.apps}

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, arrival: Arrival) -> None:
        """Route one arrival: warm hit, cold boot, capacity queue, or shed."""
        self.arrivals += 1
        self._route(Request(arrival=arrival), arrival.arrival_ns, fresh=True)

    def drop(self, arrival: Arrival) -> None:
        """An arrival the fault plane failed: counted, never served."""
        self.arrivals += 1
        self.dropped += 1

    def pre_warm(self) -> None:
        """Spawn the policy's pre-warmed workers per app at virtual zero."""
        for app in self.apps:
            for _ in range(min(self.policy.pre_warm,
                               self.policy.max_per_app)):
                if self.total_live >= self.policy.max_total:
                    return
                self._spawn(app, start_ns=0.0, first=None)

    def finalize(self) -> None:
        """After quiescence: fail leftover work, retire every live worker.

        ``EventCore.run()`` returned, so every live worker is parked (or
        floor-pinned); anything still queued can never be served -- fail
        it -- then mark the survivors retiring and wake them so their
        programs run the shutdown path, then ``run()`` the core again.
        A hung worker is normally killed by its watchdog before the heap
        empties; if the supervisor itself died (a contained dispatch
        fault), the finalize kick resumes it into the kill path.
        """
        self._finalizing = True
        if self.supervisor is not None:
            self.supervisor.stop()
        for app in self.apps:
            backlog = self.backlog[app]
            while backlog:
                request = backlog.popleft()
                self._fail(request, "unserved", request.arrival.arrival_ns)
        for worker in self.workers:
            if worker.retired:
                continue
            worker.retiring = True
            self.core.kick(worker.name, worker.guest.clock.now_ns)

    # -- routing core ------------------------------------------------------

    def _route(self, request: Request, at_ns: float, fresh: bool) -> None:
        app = request.arrival.app
        if self.supervisor is not None and self.supervisor.quarantined(
                app, at_ns):
            self._shed(request, "quarantine", at_ns)
            return
        if fresh and not self.breakers[app].admit(at_ns):
            self._shed(request, "breaker", at_ns)
            return
        pool = self.pools[app]
        while pool:
            worker = pool.pop()  # LIFO: most-recently-idle first
            if worker.retired:
                continue  # killed while pooled (contained dispatch fault)
            if fresh and self._foldable(worker, at_ns):
                self._serve_inline(worker, request, at_ns)
                return
            worker.inbox.append(request)
            self.core.kick(worker.name, at_ns)
            return
        if fresh and self._can_spawn(app):
            self._spawn(app, start_ns=at_ns, first=request)
            return
        if self._finalizing:
            # Nothing will drain a backlog after quiescence: settle now.
            self._fail(request, "unserved", at_ns)
            return
        if len(self.backlog[app]) >= self.resilience.shed_queue_depth:
            self._shed(request, "queue_depth", at_ns)
            return
        self.backlog[app].append(request)
        self.queued += 1
        depth = sum(len(q) for q in self.backlog.values())
        if depth > self.queue_high_water:
            self.queue_high_water = depth

    def _foldable(self, worker: GuestWorker, at_ns: float) -> bool:
        """Whether kicking *worker* at ``at_ns`` would run its serve
        step as the very next event: it waits at the pool wait (not
        retiring, hung or floor-parked), no fault plane counts the
        decisions along the stepped path, and no live event is due at
        or before the arrival instant.
        """
        if not (self._fold and worker.waiting and not worker.retiring
                and self.source is not None):
            return False
        next_key = self.core.next_key()
        return next_key is None or next_key > at_ns

    def _serve_inline(self, worker: GuestWorker, request: Request,
                      at_ns: float) -> None:
        """Run a warm hit's serve step, and if it would follow at once
        its return-to-pool step, inside the arrival's event.

        The stepped path kicks the worker at ``at_ns``, serves on its
        dispatch and re-enters the pool on the next one, at completion.
        Here the worker's clock lands on ``at_ns`` as the core would
        land it, and the same :meth:`_serve_one` serves.  If neither a
        live event nor the next trace instant is due by completion, the
        return step would run next, so it runs here too: back on top of
        the pool (its inbox and the app backlog are necessarily empty --
        the worker was pooled), its idle deadline re-armed behind the
        arrivals program's own next entry, where the stepped yield would
        have pushed it.  Otherwise the worker's own program runs the
        return step as an event at completion, ordered the same way.
        """
        worker.waiting = False
        worker.guest.clock.advance_to(at_ns)
        self._serve_one(worker, request)
        done_ns = worker.guest.clock.now_ns
        next_key = self.core.next_key()
        upcoming = self.source.lookahead_ns
        if ((next_key is not None and next_key <= done_ns)
                or (upcoming is not None and upcoming <= done_ns)):
            self.core.defer_kick(worker.name, done_ns)
            return
        self._enter_pool(worker)
        worker.waiting = True
        timeout_ns = self.policy.idle_timeout_ns
        if timeout_ns is not None:
            self.core.defer_kick(worker.name, done_ns + timeout_ns)

    def _retry_or_fail(self, request: Request, at_ns: float) -> None:
        """One delivery attempt failed: re-dispatch inside the retry
        budget (warm pool or backlog only -- never a direct cold boot;
        replacement capacity is the supervisor's call)."""
        request.failures += 1
        if request.failures > self.resilience.retry_budget:
            self._fail(request, "retries_exhausted", at_ns)
            return
        app = request.arrival.app
        if self.supervisor is not None and self.supervisor.quarantined(
                app, at_ns):
            self._fail(request, "quarantined", at_ns)
            return
        self.retries += 1
        self._route(request, at_ns, fresh=False)

    # -- terminal dispositions --------------------------------------------

    def _settle(self, request: Request, disposition: str) -> None:
        if request.disposition is not None:
            raise ServingInvariantError(
                f"request {request.arrival.index} settling twice: "
                f"{request.disposition} then {disposition}"
            )
        request.disposition = disposition

    def _complete(self, request: Request, at_ns: float) -> None:
        self._settle(request, "completed")
        app = request.arrival.app
        self.breakers[app].record(False, at_ns)
        if self.supervisor is not None:
            self.supervisor.record_success(app)

    def _fail(self, request: Request, reason: str, at_ns: float) -> None:
        self._settle(request, "failed")
        self.failed += 1
        self.failed_reasons[reason] = self.failed_reasons.get(reason, 0) + 1
        self.breakers[request.arrival.app].record(True, at_ns)

    def _shed(self, request: Request, reason: str, at_ns: float) -> None:
        self._settle(request, "shed")
        self.shed += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1

    # -- supervisor-facing surface ----------------------------------------

    def restart(self, app: str, at_ns: float) -> None:
        """A backoff restart probe fired: boot replacement capacity, but
        only if the app still has queued work, room, and no quarantine."""
        if self.supervisor is not None and self.supervisor.quarantined(
                app, at_ns):
            return
        if not self.backlog[app] or not self._can_spawn(app):
            return
        self.restarts += 1
        self._spawn(app, start_ns=at_ns, first=None, cold=True)

    def watchdog_fire(self, worker: GuestWorker, at_ns: float) -> None:
        """The watchdog deadline hit: kill *worker* if it is still hung."""
        if worker.retired or not worker.hung:
            return
        self.watchdog_kills += 1
        self.core.kick(worker.name, at_ns)

    def flush_app(self, app: str, at_ns: float) -> None:
        """Quarantine teardown: fail the backlog, retire the app's pool."""
        backlog = self.backlog[app]
        while backlog:
            self._fail(backlog.popleft(), "quarantined", at_ns)
        for worker in self.workers:
            if worker.app != app or worker.retired or worker.retiring:
                continue
            worker.retiring = True
            if worker.hung:
                continue  # the watchdog owns hung workers
            self.core.kick(worker.name, at_ns)

    def on_runner_failure(self, name: str, error: BaseException) -> None:
        """:class:`EventCore` contained a dispatch fault in runner *name*.

        Worker programs convert ``guest.*`` faults to structured
        outcomes themselves; this backstop reconciles router state when
        a generic ``eventcore.dispatch`` fault kills a runner outright.
        """
        if self.supervisor is not None and name == Supervisor.NAME:
            self.supervisor.dead = True
            return
        worker = self._by_name.get(name)
        if worker is None or worker.retired:
            return  # the arrivals program, or an already-settled worker
        self._fail_worker(worker, "crash", worker.guest.clock.now_ns)

    # -- worker lifecycle --------------------------------------------------

    def _can_spawn(self, app: str) -> bool:
        return (self.live[app] < self.policy.max_per_app
                and self.total_live < self.policy.max_total)

    def _spawn(self, app: str, start_ns: float, first: Optional[Request],
               cold: Optional[bool] = None) -> None:
        from repro.apps.registry import get_app
        from repro.simcore.guest import Guest, GuestSpec

        application = get_app(app)
        index = len(self.workers)
        spec = GuestSpec(
            name=f"serve-{app}-{index:05d}",
            variant=self.orchestrator.variant_for(application),
            app=app,
            full_image=True,
        )
        guest = Guest(
            spec,
            clock=self.core.clock_for(spec.name),
            unikernel=self.orchestrator.unikernel_for(application),
        )
        worker = GuestWorker(
            name=spec.name, app=app, guest=guest, spawn_ns=start_ns,
            cold_pending=(first is not None) if cold is None else cold,
        )
        if first is not None:
            worker.inbox.append(first)
        self.workers.append(worker)
        self._by_name[spec.name] = worker
        self.live[app] += 1
        self.total_live += 1
        if self.total_live > self.peak_live:
            self.peak_live = self.total_live
        self.core.spawn(spec.name, self._worker_program(worker),
                        start_ns=start_ns)

    def _worker_program(self, worker: GuestWorker):
        from repro.faults import FaultInjected, fault_site

        guest = worker.guest
        guest.build()
        if self.record_usage:
            from repro.syscall.usage import UsageTrace

            # Attach the recorder to the freshly-built engine; a serving
            # guest binds/listens on the inet stack from boot, so that
            # facility is part of its observed usage regardless of
            # whether a request ever lands.
            guest.engine.usage = UsageTrace(owner=worker.name)
            guest.engine.usage.record_facility("socket:inet")
        yield None  # BUILT at the spawn instant; boot is the next stage
        try:
            with fault_site("guest.boot_fail"):
                worker.boot_ms = guest.boot().total_ms
        except FaultInjected:
            # The corrupted-image case: this guest never serves.
            self._fail_worker(worker, "boot_fail", guest.clock.now_ns)
            return
        yield None
        while True:
            request = self._take_work(worker)
            if request is not None:
                worker.current = request
                outcome = self._attempt(worker, request)
                if outcome == "served":
                    worker.current = None
                    yield None
                    continue
                if outcome == "hang":
                    self.guest_hangs += 1
                    worker.hung = True
                    if self.supervisor is not None:
                        self.supervisor.watch(worker, guest.clock.now_ns)
                    yield PARK
                    # Only the watchdog (or finalize, if the supervisor
                    # died) wakes a hung worker: it is killed here.
                    worker.hung = False
                    self._fail_worker(worker, "hang", guest.clock.now_ns)
                    return
                self._fail_worker(worker, "crash", guest.clock.now_ns)
                return
            if worker.retiring:
                self._leave_pool(worker)
                break
            self._enter_pool(worker)
            worker.waiting = True
            timeout_ns = self.policy.idle_timeout_ns
            if timeout_ns is None:
                yield PARK  # keepalive forever: only a kick wakes us
            else:
                yield guest.clock.now_ns + timeout_ns
            # Woken with work, into retirement, by the idle deadline, or
            # for the return-to-pool step of a serve the router ran
            # inline (which cleared ``waiting``).
            served_inline = not worker.waiting
            worker.waiting = False
            if (timeout_ns is None or served_inline or worker.inbox
                    or worker.retiring):
                continue
            # The idle timeout genuinely expired: scale to zero, unless
            # the policy floor pins this worker warm.
            if self.live[worker.app] - 1 >= self.policy.min_warm:
                self._leave_pool(worker)
                break
            yield PARK
        guest.shutdown()
        self._on_retired(worker)

    def _attempt(self, worker: GuestWorker, request: Request) -> str:
        """One serve attempt under the guest fault sites.

        Narrow by design: only :class:`FaultInjected` converts to a
        structured outcome ("hang"/"crash"); anything else propagates to
        the core's containment (the satellite audit's no-broad-except
        rule).
        """
        from repro.faults import FaultInjected, fault_site

        try:
            with fault_site("guest.hang"):
                with fault_site("guest.crash"):
                    self._serve_one(worker, request)
        except FaultInjected as error:
            return "hang" if error.site == "guest.hang" else "crash"
        return "served"

    def _fail_worker(self, worker: GuestWorker, reason: str,
                     at_ns: float) -> None:
        """Tear down a failed worker and fail over its queued requests."""
        if worker.retired:
            return
        if reason == "crash":
            self.guest_crashes += 1
        elif reason == "boot_fail":
            self.boot_failures += 1
        self._leave_pool(worker)
        worker.failed = True
        worker.retired = True
        worker.retire_ns = at_ns
        self.live[worker.app] -= 1
        self.total_live -= 1
        victims: List[Request] = []
        if worker.current is not None:
            victims.append(worker.current)
            worker.current = None
        victims.extend(worker.inbox)
        worker.inbox.clear()
        # Quarantine decisions happen before fail-over so the victims
        # see the post-failure world (a freshly-quarantined app fails
        # its retries instead of re-queueing them).
        if self.supervisor is not None:
            self.supervisor.record_failure(worker.app, at_ns)
        for request in victims:
            self._retry_or_fail(request, at_ns)

    def _take_work(self, worker: GuestWorker) -> Optional[Request]:
        if worker.inbox:
            return worker.inbox.popleft()
        backlog = self.backlog[worker.app]
        if backlog:
            return backlog.popleft()
        return None

    def _serve_one(self, worker: GuestWorker, request: Request) -> None:
        guest = worker.guest
        cold = worker.cold_pending
        worker.cold_pending = False
        guest.serve(self._profiles[worker.app], 1)
        worker.served += 1
        arrival = request.arrival
        self.served_by_app[arrival.app] += 1
        if cold:
            self.cold_starts += 1
            self.cold_by_app[arrival.app] += 1
        self.latencies_ns.append(guest.clock.now_ns - arrival.arrival_ns)
        self._complete(request, guest.clock.now_ns)

    def _enter_pool(self, worker: GuestWorker) -> None:
        self.pools[worker.app].append(worker)

    def _leave_pool(self, worker: GuestWorker) -> None:
        pool = self.pools[worker.app]
        if worker in pool:
            pool.remove(worker)

    def _on_retired(self, worker: GuestWorker) -> None:
        worker.retired = True
        worker.retire_ns = worker.guest.clock.now_ns
        self.live[worker.app] -= 1
        self.total_live -= 1

    # -- accounting --------------------------------------------------------

    @property
    def completed(self) -> int:
        return len(self.latencies_ns)

    @property
    def spawned(self) -> int:
        return len(self.workers)

    @property
    def retired_count(self) -> int:
        return sum(1 for worker in self.workers
                   if worker.retired and not worker.failed)

    @property
    def failed_workers(self) -> int:
        return sum(1 for worker in self.workers if worker.failed)

    @property
    def guest_seconds(self) -> float:
        """Booted-guest lifetime paid across the run, in virtual seconds."""
        total = 0.0
        for worker in self.workers:
            end = (worker.retire_ns if worker.retire_ns is not None
                   else worker.guest.clock.now_ns)
            total += max(0.0, end - worker.spawn_ns)
        return total / 1e9

    def usage_by_app(self) -> Dict[str, object]:
        """Per-app usage merged across every worker ever spawned.

        Only meaningful when the router was built with
        ``record_usage=True``; each app's traces fold order-insensitively
        (:meth:`UsageTrace.merge`), so the result is a pure function of
        the run, not of worker retirement order.  This is the fleet-scale
        recording half of the Loupe loop: the merged traces feed
        :mod:`repro.kconfig.derive`.
        """
        from repro.syscall.usage import UsageTrace

        merged: Dict[str, UsageTrace] = {}
        for worker in self.workers:
            engine = getattr(worker.guest, "engine", None)
            usage = getattr(engine, "usage", None)
            if usage is None or not usage:
                continue
            merged.setdefault(
                worker.app, UsageTrace(owner=worker.app)
            ).merge(usage)
        return {app: merged[app] for app in sorted(merged)}

    def check_conservation(self) -> None:
        """Assert the request-conservation identity (bug-trap, not load)."""
        settled = self.completed + self.failed + self.shed + self.dropped
        if settled != self.arrivals:
            raise ServingInvariantError(
                f"request conservation broke: {self.arrivals} arrivals != "
                f"{self.completed} completed + {self.failed} failed + "
                f"{self.shed} shed + {self.dropped} dropped"
            )

    @staticmethod
    def _profile(app: str):
        from repro.core.orchestrator import serving_profile

        profile = serving_profile(app)
        if profile is None:
            raise ValueError(f"app {app!r} has no serving profile")
        return profile
