"""The warm-hit fold is exact: folded and stepped serving runs agree.

With no fault plane installed, the router serves a warm hit inside its
arrival's event (``Router._serve_inline``).  Under an installed fault
plane -- even one with nothing scheduled -- every warm hit takes the
stepped path instead: a kick, a serve event, a return-to-pool event.
The stepped path is therefore the fold's oracle: for any spec, the
no-plane manifest must equal the empty-plane manifest byte for byte.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlane, activated
from repro.simcore.eventcore import PARK
from repro.traffic.arrivals import (
    arrival_times_ns,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
)
from repro.traffic.bench import canonical_trace
from repro.traffic.policy import FIXED_POOL, SCALE_TO_ZERO
from repro.traffic.serve import ServeSpec, _arrivals_program, run_serving

#: Trace shapes, each short enough for a property run.  The high rates
#: land arrivals inside a warm serve (~14 us), so some folded serves
#: must leave their return-to-pool step to an event of its own.
TRACES = {
    "poisson": lambda requests, fast: poisson_trace(
        requests=requests, mean_rps=20_000 if fast else 500,
    ),
    "diurnal": lambda requests, fast: diurnal_trace(
        requests=requests, mean_rps=5_000 if fast else 500,
        period_s=0.05 if fast else 0.4, amplitude=1.0,
    ),
    "bursty": lambda requests, fast: bursty_trace(
        requests=requests, on_rps=40_000 if fast else 4_000, off_rps=50,
        on_s=0.01, off_s=0.05,
    ),
}

#: Overrides on top of a preset: tiny idle timeouts (the idle re-arm
#: fires mid-trace), floor pins (timed-out workers park in the pool),
#: and capacity ceilings that force queueing.
OVERRIDES = st.fixed_dictionaries({}, optional={
    "idle_timeout_s": st.sampled_from([0.0001, 0.002, 0.05]),
    "min_warm": st.integers(0, 2),
    "max_per_app": st.integers(1, 3),
    "max_total": st.integers(2, 8),
})


def _stepped(spec: ServeSpec):
    """*spec* under an installed plane that schedules nothing."""
    with activated(FaultPlane(seed=0)):
        return run_serving(spec)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000),
       kind=st.sampled_from(sorted(TRACES)),
       fast=st.booleans(),
       requests=st.sampled_from([60, 200]),
       preset=st.sampled_from([SCALE_TO_ZERO, FIXED_POOL]),
       overrides=OVERRIDES)
def test_folded_manifest_equals_stepped(seed, kind, fast, requests, preset,
                                        overrides):
    spec = ServeSpec(trace=TRACES[kind](requests, fast),
                     policy=preset.with_overrides(**overrides), seed=seed)
    folded = run_serving(spec)
    stepped = _stepped(spec)
    assert folded.manifest() == stepped.manifest()
    # The stepped run never dispatches fewer events than the folded one.
    assert (folded.eventcore_stats.events_dispatched
            <= stepped.eventcore_stats.events_dispatched)


def test_max_per_app_one_queues_and_still_agrees():
    policy = SCALE_TO_ZERO.with_overrides(max_per_app=1,
                                          idle_timeout_s=0.002)
    spec = ServeSpec(trace=TRACES["bursty"](300, True), policy=policy,
                     seed=23)
    folded = run_serving(spec)
    assert folded.queued > 0
    assert folded.manifest() == _stepped(spec).manifest()


def test_presets_fold_nearly_every_request():
    """Non-vacuity: on both presets the arrival and warm-hit folds take
    nearly all three events off nearly every request, and the stepped
    oracle does not."""
    for policy in (FIXED_POOL, SCALE_TO_ZERO):
        spec = ServeSpec(trace=canonical_trace(4_000), policy=policy,
                         seed=2020)
        folded = run_serving(spec)
        stepped = _stepped(spec)
        assert folded.manifest() == stepped.manifest()
        served = folded.served
        assert served == 4_000
        assert folded.eventcore_stats.events_dispatched / served <= 0.25
        assert stepped.eventcore_stats.events_dispatched / served >= 2.9


class TestArrivalFold:
    """The arrivals program serves an arrival inside its running event
    only when the core would pop the program's entry straight back."""

    #: Slow enough that most arrivals land after the pre-warmed fleet
    #: has booted (~150 ms), when nothing else is due between them.
    TRACE = poisson_trace(requests=120, mean_rps=200)
    SEED = 4
    TIE_INDEX = 90

    def _run(self, monkeypatch, installed_plane, tie=True):
        """Serve :attr:`TRACE`, with one more program whose heap entry
        ties arrival :attr:`TIE_INDEX`'s instant if *tie*; returns the
        report, the arrivals that program saw dispatched before it ran,
        and the instants the arrivals program yielded to the core (its
        stepped branch)."""
        from repro.traffic import serve

        tie_ns = list(arrival_times_ns(self.TRACE, self.SEED))[self.TIE_INDEX]
        seen, yielded = [], []

        def with_tie(source, router):
            def tied():
                seen.append(router.arrivals)
                yield PARK

            # Pushed before any entry the arrivals program yields later,
            # so it wins the tie at ``tie_ns``.
            if tie:
                router.core.spawn("tie", tied(), start_ns=tie_ns)
            for instant in _arrivals_program(source, router):
                yielded.append(instant)
                yield instant

        spec = ServeSpec(trace=self.TRACE, policy=FIXED_POOL, seed=self.SEED)
        with monkeypatch.context() as patch:
            patch.setattr(serve, "_arrivals_program", with_tie)
            report = _stepped(spec) if installed_plane else run_serving(spec)
        return report, seen, yielded, tie_ns

    def test_a_tie_with_a_live_event_takes_the_stepped_branch(
            self, monkeypatch):
        untied, _, untied_yielded, tie_ns = self._run(monkeypatch, False,
                                                      tie=False)
        assert tie_ns not in untied_yielded  # alone, that arrival folds
        assert len(untied_yielded) < self.TRACE.requests // 2
        folded, seen, yielded, _ = self._run(monkeypatch, False)
        stepped, stepped_seen, stepped_yielded, _ = self._run(monkeypatch,
                                                              True)
        assert folded.manifest() == stepped.manifest() == untied.manifest()
        # The tied event ran before the arrival on both paths.
        assert seen == stepped_seen == [self.TIE_INDEX]
        assert yielded == sorted(untied_yielded + [tie_ns])
        assert len(stepped_yielded) == self.TRACE.requests


class TestFoldEligibility:
    """``Router._foldable`` on one pre-warmed, pooled redis worker.

    An arrival never ties with another event on a random trace, so the
    exact-tie rules are checked here directly."""

    @staticmethod
    def _pooled(installed_plane=False):
        from repro.core.orchestrator import KernelOrchestrator
        from repro.simcore.eventcore import EventCore
        from repro.traffic.arrivals import ArrivalSource
        from repro.traffic.router import Router

        def build():
            core = EventCore()
            router = Router(core=core, orchestrator=KernelOrchestrator(),
                            policy=FIXED_POOL.with_overrides(pre_warm=1),
                            apps=["redis"])
            router.source = ArrivalSource(
                poisson_trace(requests=1, mean_rps=1.0), 0,
                core.clock_for("arrivals"), ["redis"],
            )
            router.pre_warm()
            core.run()  # build, boot, enter the pool, park
            return core, router

        if installed_plane:
            with activated(FaultPlane(seed=0)):
                return build()
        return build()

    def test_a_waiting_worker_folds_until_an_event_ties_the_arrival(self):
        core, router = self._pooled()
        (worker,) = router.workers
        at_ns = worker.guest.clock.now_ns + 1e6
        dispatched = core.stats.events_dispatched  # build, boot, pool
        assert worker.waiting and router.pools["redis"] == [worker]
        assert router._foldable(worker, at_ns)

        def other():
            yield PARK

        core.spawn("other", other(), start_ns=at_ns)
        # A live entry at the arrival instant dispatches before a kick
        # pushed at that instant would: the stepped path must run.
        assert not router._foldable(worker, at_ns)
        assert router._foldable(worker, at_ns - 1.0)
        core.kick("other", at_ns + 5.0)  # the tied entry goes stale
        assert router._foldable(worker, at_ns)
        assert core.stats.events_dispatched == dispatched

    def test_retiring_unpooled_or_sourceless_workers_take_the_kick(self):
        core, router = self._pooled()
        (worker,) = router.workers
        at_ns = worker.guest.clock.now_ns + 1e6
        worker.retiring = True
        assert not router._foldable(worker, at_ns)
        worker.retiring = False
        worker.waiting = False  # e.g. floor-parked after its timeout
        assert not router._foldable(worker, at_ns)
        worker.waiting = True
        router.source = None
        assert not router._foldable(worker, at_ns)

    def test_a_plane_installed_when_the_router_is_built_disables_the_fold(
            self):
        core, router = self._pooled(installed_plane=True)
        (worker,) = router.workers
        assert worker.waiting
        assert not router._foldable(worker, worker.guest.clock.now_ns + 1e6)

    @pytest.mark.parametrize("tie", ("event", "arrival"))
    def test_a_tie_at_completion_leaves_the_return_to_its_own_event(self, tie):
        from repro.traffic.arrivals import Arrival
        from repro.traffic.router import Request

        seen = []

        def other(router):
            seen.append(list(router.pools["redis"]))
            yield PARK

        def serve(tie_ns=None):
            core, router = self._pooled()
            (worker,) = router.workers
            at_ns = worker.guest.clock.now_ns + 1e6
            if tie_ns is not None and tie == "event":
                core.spawn("other", other(router), start_ns=tie_ns)
            if tie_ns is not None and tie == "arrival":
                router.source.lookahead_ns = tie_ns
            request = Request(arrival=Arrival(index=0, app="redis",
                                              arrival_ns=at_ns))
            assert router.pools["redis"].pop() is worker  # as _route does
            router._serve_inline(worker, request, at_ns)
            return core, router, worker

        # Deterministic: a first run tells when the serve completes.
        core, router, worker = serve()
        done_ns = worker.guest.clock.now_ns
        assert router.pools["redis"] == [worker]  # returned inline
        assert core._deferred == []  # a parked worker needs no re-arm
        core, router, worker = serve(tie_ns=done_ns)
        assert worker.guest.clock.now_ns == done_ns
        # Something else is due at completion: the worker's own program
        # returns it to the pool, as an event sorted behind the tie.
        assert router.pools["redis"] == []
        assert [entry[0] for entry in core._deferred] == [done_ns]
        core.run()
        assert router.pools["redis"] == [worker] and worker.waiting
        if tie == "event":
            assert seen == [[]]  # the tied event ran first
