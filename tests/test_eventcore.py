"""Tests for the fleet-wide event core and the fleet simulation edges.

Covers the :class:`~repro.simcore.eventcore.EventCore` dispatch loop
itself (virtual-time ordering, closed-form fast-forward of idle guests,
park/kick, stats), the surface the router's warm-hit fold and the
arrival fold run on (``next_key``, ``defer_kick``, ``runs_next``,
``flush_deferred``), ``Fleet.simulate``'s edge cases and
``build_count``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore.eventcore import PARK, EventCore, EventCoreError


class TestEventCore:
    def test_clock_for_is_create_on_first_use(self):
        core = EventCore()
        clock = core.clock_for("g")
        assert core.clock_for("g") is clock
        assert clock.now_ns == 0.0

    def test_duplicate_spawn_rejected(self):
        core = EventCore()

        def program():
            yield None

        core.spawn("g", program())
        with pytest.raises(EventCoreError):
            core.spawn("g", program())

    def test_empty_core_runs_to_completion(self):
        stats = EventCore().run()
        assert stats.events_dispatched == 0
        assert stats.guests == 0

    def test_guests_interleave_in_virtual_time_order(self):
        core = EventCore()
        order = []

        def program(name, step, stages):
            clock = core.clock_for(name)
            for _ in range(stages):
                order.append((name, clock.now_ns))
                clock.advance(step)
                yield None

        core.spawn("slow", program("slow", 10.0, 2))
        core.spawn("fast", program("fast", 3.0, 4))
        core.run()
        # The runnable guest with the smallest virtual instant always
        # dispatches next; ties (both at 0) break by spawn order.
        assert order == [
            ("slow", 0.0),
            ("fast", 0.0),
            ("fast", 3.0),
            ("fast", 6.0),
            ("fast", 9.0),
            ("slow", 10.0),
        ]

    def test_idle_guest_fast_forwarded_in_closed_form(self):
        core = EventCore()
        landed = []

        def program():
            clock = core.clock_for("g")
            yield 50.0
            # The core landed the clock exactly on the yielded deadline,
            # in one advance_to.
            landed.append(clock.now_ns)

        core.spawn("g", program())
        stats = core.run()
        assert landed == [50.0]
        assert stats.guests_fast_forwarded == 1
        assert stats.events_dispatched == 2  # initial stage + wake-up

    def test_yield_none_means_runnable_now(self):
        core = EventCore()

        def program():
            clock = core.clock_for("g")
            clock.advance(7.0)
            yield None
            assert clock.now_ns == 7.0  # no fast-forward happened

        core.spawn("g", program())
        stats = core.run()
        assert stats.guests_fast_forwarded == 0

    def test_yielding_behind_own_clock_raises(self):
        core = EventCore()

        def program():
            clock = core.clock_for("g")
            clock.advance(100.0)
            yield 10.0  # time reversal: parked behind its own clock

        core.spawn("g", program())
        with pytest.raises(EventCoreError):
            core.run()

    def test_heap_high_water_tracks_registered_guests(self):
        core = EventCore()

        def program():
            yield None

        for index in range(5):
            core.spawn(f"g{index}", program())
        stats = core.run()
        assert stats.heap_high_water == 5
        assert stats.guests == 5

    def test_stats_published_to_metrics(self):
        from repro.observe import METRICS

        dispatched = METRICS.counter("eventcore.events_dispatched")
        forwarded = METRICS.counter("eventcore.guests_fast_forwarded")
        before = (dispatched.value, forwarded.value)

        core = EventCore()

        def program():
            yield 5.0

        core.spawn("g", program())
        stats = core.run()
        assert (stats.events_dispatched, stats.guests_fast_forwarded) == (2, 1)
        assert dispatched.value - before[0] == stats.events_dispatched
        assert forwarded.value - before[1] == stats.guests_fast_forwarded
        assert stats.to_dict()["heap_high_water"] == stats.heap_high_water


class TestParkAndKick:
    """The serving extensions: PARK, kicks, and timed spawns."""

    def test_parked_runner_survives_run_and_resumes_on_kick(self):
        core = EventCore()
        log = []

        def program():
            log.append("before")
            yield PARK
            log.append("after")

        core.spawn("g", program())
        stats = core.run()
        assert log == ["before"]  # quiescent with the runner parked
        # Parked: off the heap, and the park is counted.
        assert core.next_key() is None
        assert stats.parks == 1
        core.kick("g", 40.0)
        assert core.next_key() == 40.0  # the kick put it back
        stats = core.run()
        assert log == ["before", "after"]
        assert core.next_key() is None
        assert (stats.parks, stats.kicks) == (1, 1)
        assert core.clock_for("g").now_ns == 40.0

    def test_kick_requires_a_live_runner(self):
        core = EventCore()

        def program():
            yield None

        core.spawn("g", program())
        with pytest.raises(EventCoreError):
            core.kick("missing", 0.0)
        core.run()  # the program returns: the runner is finished
        with pytest.raises(EventCoreError):
            core.kick("g", 0.0)
        assert core.stats.kicks == 0

    def test_kick_preempts_a_pending_deadline(self):
        core = EventCore()
        woken_at = []

        def program():
            clock = core.clock_for("g")
            yield clock.now_ns + 100.0  # long idle timeout
            woken_at.append(clock.now_ns)

        def traffic():
            yield 25.0  # traffic lands before the timeout
            core.kick("g", 25.0)

        core.spawn("g", program())
        core.spawn("t", traffic())
        stats = core.run()
        # The kick's generation bump invalidated the 100.0 heap entry:
        # the runner wakes once, at the kick instant, and the stale
        # entry is skipped without counting as a dispatch.
        assert woken_at == [25.0]
        assert stats.kicks == 1

    def test_kick_never_moves_a_clock_backwards(self):
        core = EventCore()

        def program():
            clock = core.clock_for("g")
            clock.advance(50.0)
            yield PARK
            assert clock.now_ns == 50.0

        core.spawn("g", program())
        core.run()
        core.kick("g", 10.0)  # behind the runner's own now: clamped
        core.run()

    def test_spawn_start_ns_defers_first_dispatch(self):
        core = EventCore()
        instants = []

        def early():
            clock = core.clock_for("early")
            instants.append(("early", clock.now_ns))
            clock.advance(5.0)
            yield None

        def late():
            instants.append(("late", core.clock_for("late").now_ns))
            yield None

        core.spawn("late", late(), start_ns=30.0)
        core.spawn("early", early())
        core.run()
        # The deferred runner dispatches at its start instant, after the
        # immediate one, with its clock fast-forwarded there.
        assert instants == [("early", 0.0), ("late", 30.0)]

    def test_park_and_kick_stats_published_as_deltas(self):
        from repro.observe import METRICS

        parks = METRICS.counter("eventcore.parks")
        kicks = METRICS.counter("eventcore.kicks")
        before = (parks.value, kicks.value)
        core = EventCore()

        def program():
            yield PARK
            yield PARK

        core.spawn("g", program())
        core.run()           # first park published here...
        core.kick("g", 1.0)
        core.run()           # ...second park here; deltas must not recount
        assert parks.value - before[0] == 2
        assert kicks.value - before[1] == 1
        assert core.stats.parks == 2
        assert core.stats.kicks == 1

    def test_resumed_run_is_quiescence_not_termination(self):
        core = EventCore()
        served = []

        def worker():
            while True:
                yield PARK
                if inbox:
                    served.append(inbox.pop())

        inbox = []
        core.spawn("w", worker())
        core.run()
        for item, at in ((1, 10.0), (2, 20.0)):
            inbox.append(item)
            core.kick("w", at)
            core.run()
        assert served == [1, 2]


class TestFoldSurface:
    """``next_key`` and ``defer_kick``: what the router's warm-hit fold
    needs to run a stage inside another program's dispatch."""

    @staticmethod
    def _parked_worker(core, woken):
        def worker():
            yield PARK
            woken.append(core.clock_for("w").now_ns)

        core.spawn("w", worker())
        stats = core.run()
        assert core.next_key() is None  # parked: off the heap
        assert stats.parks == 1

    @pytest.mark.parametrize("deferred", (True, False))
    def test_deferred_kick_sorts_after_the_runner_own_tied_entry(
            self, deferred):
        core = EventCore()
        order = []

        def worker():
            yield PARK
            order.append("worker")

        def driver():
            if deferred:
                core.defer_kick("w", 10.0)
            else:
                core.kick("w", 10.0)
            yield 10.0  # the driver's own next entry, at the same key
            order.append("driver")

        core.spawn("w", worker())
        core.run()
        core.spawn("d", driver())
        core.run()
        # A plain kick pushes first and wins the tie; a deferred one is
        # pushed behind the entry the driver's yield produced.
        assert order == (["driver", "worker"] if deferred
                         else ["worker", "driver"])

    def test_deferred_kick_flushed_when_the_program_returns(self):
        core = EventCore()
        woken = []
        self._parked_worker(core, woken)

        def driver():
            core.defer_kick("w", 5.0)
            return
            yield  # pragma: no cover - makes this a generator

        core.spawn("d", driver())
        stats = core.run()
        assert woken == [5.0]
        assert stats.kicks == 1

    def test_deferred_kick_flushed_when_a_contained_fault_kills_the_program(
            self):
        from repro.faults import FaultInjected

        core = EventCore()
        woken = []
        self._parked_worker(core, woken)

        def driver():
            core.defer_kick("w", 5.0)
            raise FaultInjected("eventcore.dispatch")
            yield  # pragma: no cover - makes this a generator

        core.spawn("d", driver())
        stats = core.run()
        assert [name for name, _ in core.failures] == ["d"]
        assert woken == [5.0]
        assert stats.guest_failures == 1

    def test_deferred_kick_supersedes_at_once_and_clamps_to_now(self):
        core = EventCore()
        woken, seen = [], []

        def worker():
            clock = core.clock_for("w")
            clock.advance(20.0)
            yield clock.now_ns + 100.0  # an idle deadline at 120
            woken.append(clock.now_ns)

        def driver():
            yield 30.0
            core.defer_kick("w", 10.0)  # behind the worker's own now
            # The generation bump is immediate: the 120 entry is stale
            # before this dispatch ends.
            seen.append(core.next_key())
            yield PARK

        core.spawn("w", worker())
        core.spawn("d", driver())
        core.run()
        assert seen == [None]
        assert woken == [20.0]  # clamped to its own now, never rewound

    def test_next_key_skims_stale_entries_without_dispatching(self):
        core = EventCore()

        def program():
            return
            yield  # pragma: no cover - makes this a generator

        core.spawn("g", program(), start_ns=50.0)
        core.kick("g", 70.0)  # the 50.0 entry is now stale
        assert len(core._heap) == 2
        assert core.next_key() == 70.0
        assert len(core._heap) == 1  # the stale top was dropped
        assert core.stats.events_dispatched == 0
        stats = core.run()
        assert stats.events_dispatched == 1
        assert core.next_key() is None


class TestRunsNext:
    """``runs_next``: would the running program's entry at a key be
    popped straight back?  Exact ties decide it."""

    @staticmethod
    def _idle(core, name, start_ns=None):
        def program():
            while True:
                yield PARK

        core.spawn(name, program(), start_ns=start_ns)

    def test_a_live_heap_entry_at_the_key_wins_the_tie(self):
        core = EventCore()
        self._idle(core, "g", start_ns=10.0)
        assert core.runs_next(9.0)
        assert not core.runs_next(10.0)  # pushed earlier: a smaller seq
        assert not core.runs_next(11.0)

    def test_a_stale_heap_entry_does_not_count(self):
        core = EventCore()
        self._idle(core, "g", start_ns=10.0)
        core.kick("g", 20.0)  # the 10.0 entry is superseded
        assert core.runs_next(10.0)
        assert core.runs_next(19.0)
        assert not core.runs_next(20.0)

    def test_a_deferred_entry_at_the_key_loses_the_tie(self):
        core = EventCore()
        self._idle(core, "w")
        core.run()  # w parks
        core.defer_kick("w", 10.0)
        assert core.runs_next(9.0)
        assert core.runs_next(10.0)  # pushed behind the program's entry
        assert not core.runs_next(10.5)

    def test_a_superseded_deferred_entry_never_makes_it_true(self):
        core = EventCore()
        self._idle(core, "w")
        self._idle(core, "g", start_ns=10.0)
        core.run()  # both park
        core.defer_kick("w", 5.0)
        core.defer_kick("w", 30.0)  # supersedes the 5.0 entry
        # Stale, yet counted: it can only send a caller down the
        # stepped path.
        assert not core.runs_next(10.0)
        assert core.runs_next(5.0)
        core.kick("g", 10.0)
        core.defer_kick("g", 40.0)  # the live 10.0 entry goes stale
        core.kick("w", 10.0)  # a live heap entry ties again
        assert not core.runs_next(10.0)

    def test_flush_deferred_pushes_in_order_and_empties(self):
        core = EventCore()
        self._idle(core, "a")
        self._idle(core, "b")
        core.run()
        core.defer_kick("b", 7.0)
        core.defer_kick("a", 7.0)
        assert core.next_key() is None  # held back until flushed
        core.flush_deferred()
        assert core._deferred == []
        assert [entry[3].name for entry in sorted(core._heap)] == ["b", "a"]
        core.flush_deferred()  # nothing left: a no-op
        assert len(core._heap) == 2

    @settings(max_examples=200, deadline=None)
    @given(starts=st.lists(st.sampled_from([5.0, 10.0, 15.0]), max_size=4),
           deferred=st.lists(st.tuples(st.integers(0, 3),
                                       st.sampled_from([5.0, 10.0, 15.0])),
                             max_size=4),
           kicked=st.lists(st.tuples(st.integers(0, 3),
                                     st.sampled_from([5.0, 10.0, 15.0])),
                           max_size=2),
           key=st.sampled_from([5.0, 10.0, 15.0]))
    def test_true_only_when_the_yielded_entry_is_popped_next(
            self, starts, deferred, kicked, key):
        """Against the loop itself: a program that yields at ``key``
        after ``runs_next(key)`` held is the very next dispatch; and
        without superseded deferred entries the converse holds too."""
        core = EventCore()
        order, verdict = [], []

        def other(name):
            while True:
                order.append(name)
                yield PARK

        names = [f"o{i}" for i in range(len(starts))]
        for name, start_ns in zip(names, starts):
            core.spawn(name, other(name), start_ns=start_ns)

        def driver():
            if names:
                for index, at_ns in kicked:
                    core.kick(names[index % len(names)], at_ns)
                for index, at_ns in deferred:
                    core.defer_kick(names[index % len(names)], at_ns)
            verdict.append(core.runs_next(key))
            yield key
            order.append("driver")

        core.spawn("driver", driver())
        core.run()
        assert "driver" in order
        popped_next = order[0] == "driver"
        if verdict[0]:
            assert popped_next
        targets = [index % len(names) for index, _ in deferred if names]
        if len(set(targets)) == len(targets):  # no deferred entry stale
            assert verdict[0] == popped_next


class TestFoldAtEndOfTrace:
    """The router's warm-hit fold on the trace's last arrival."""

    @staticmethod
    def _serve(installed_plane):
        from repro.core.orchestrator import KernelOrchestrator
        from repro.faults import FaultPlane, activated
        from repro.traffic.arrivals import ArrivalSource, poisson_trace
        from repro.traffic.policy import SCALE_TO_ZERO
        from repro.traffic.router import Router
        from repro.traffic.serve import _arrivals_program

        def run():
            core = EventCore()
            # One redis worker: arrivals during its cold boot queue,
            # every later one is a warm hit on scale-to-zero.
            router = Router(core=core, orchestrator=KernelOrchestrator(),
                            policy=SCALE_TO_ZERO.with_overrides(
                                max_per_app=1),
                            apps=["redis"])
            source = ArrivalSource(poisson_trace(requests=12, mean_rps=20),
                                   3, core.clock_for("arrivals"), ["redis"])
            router.source = source
            core.spawn("arrivals", _arrivals_program(source, router))
            inline = []
            serve_inline = router._serve_inline

            def spy(worker, request, at_ns):
                serve_inline(worker, request, at_ns)
                inline.append((request.arrival.index,
                               worker.guest.clock.now_ns))

            router._serve_inline = spy
            core.run()
            router.finalize()
            core.run()
            return router, inline

        if not installed_plane:
            return run()
        with activated(FaultPlane(seed=0)):
            return run()

    def test_last_arrival_folded_and_its_idle_rearm_fires(self):
        """The fold re-arms the idle deadline by a deferred kick in the
        arrivals program's last dispatch, which ends in a return: the
        kick must still land, so the worker retires one idle timeout
        after its last request, as on the stepped path."""
        from repro.traffic.policy import SCALE_TO_ZERO

        folded, inline = self._serve(installed_plane=False)
        stepped, none = self._serve(installed_plane=True)
        assert none == []  # an installed plane steps every warm hit
        assert inline[-1][0] == 11  # the last arrival was folded
        (worker,) = folded.workers
        done_ns = inline[-1][1]
        assert worker.retire_ns == done_ns + SCALE_TO_ZERO.idle_timeout_ns
        assert worker.retire_ns == stepped.workers[0].retire_ns
        assert folded.guest_seconds == stepped.guest_seconds
        assert folded.latencies_ns == stepped.latencies_ns


class TestFleetEdgeCases:
    def test_zero_guest_fleet_is_empty_but_well_formed(self):
        from repro.core.orchestrator import Fleet, KernelPolicy

        simulation = Fleet.simulate(0, policy=KernelPolicy.GENERAL, seed=1)
        manifest = simulation.manifest()
        assert manifest["count"] == 0
        assert manifest["guests"] == []
        assert simulation.manifest_digest  # digestable, not degenerate
        assert simulation.distinct_kernels == 0

    def test_negative_fleet_size_rejected(self):
        from repro.core.orchestrator import Fleet

        with pytest.raises(ValueError, match="negative"):
            Fleet.simulate(-1)

    def test_duplicate_guest_names_rejected_up_front(self):
        from repro.core.orchestrator import Fleet
        from repro.simcore.guest import GuestSpec

        spec = GuestSpec(name="twin", variant=None, app="redis")
        with pytest.raises(ValueError, match="duplicate guest name"):
            Fleet._validate_specs([spec, spec])


class TestFleetBuildCount:
    def test_manifest_reports_build_count(self):
        from repro.core.orchestrator import Fleet, KernelPolicy

        simulation = Fleet.simulate(20, policy=KernelPolicy.GENERAL, seed=5)
        assert simulation.manifest()["build_count"] == simulation.build_count
        # GENERAL: the whole fleet shares one kernel, built exactly once
        # through the orchestrator's memo.
        assert simulation.build_count == 1
        assert simulation.build_count == simulation.distinct_kernels

    def test_build_count_matches_distinct_kernels_per_app(self):
        from repro.core.orchestrator import Fleet, KernelPolicy

        simulation = Fleet.simulate(60, policy=KernelPolicy.PER_APP, seed=5)
        assert simulation.build_count == simulation.distinct_kernels > 1
