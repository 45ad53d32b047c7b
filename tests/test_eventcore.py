"""Tests for the fleet-wide event core and the fleet simulation edges.

Covers the :class:`~repro.simcore.eventcore.EventCore` dispatch loop
itself (virtual-time ordering, closed-form fast-forward of idle guests,
park/kick, stats), ``Fleet.simulate``'s edge cases and ``build_count``,
and ``Guest.shutdown`` draining pending deadlines.
"""

import pytest

from repro.simcore.eventcore import (
    PARK,
    EventCore,
    EventCoreError,
    drain_deadlines,
)


class TestEventCore:
    def test_clock_for_is_create_on_first_use(self):
        core = EventCore()
        clock = core.clock_for("g")
        assert core.clock_for("g") is clock
        assert clock.now_ns == 0.0

    def test_clock_for_honors_start_ns(self):
        core = EventCore(start_ns=100.0)
        assert core.clock_for("g").now_ns == 100.0

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
        fired = []

        def program():
            clock = core.clock_for("g")
            clock.call_after(50.0, lambda: fired.append(clock.now_ns))
            yield 50.0
            # The core landed the clock exactly on the parked deadline
            # (one advance_to, which fired the due event on the way).
            assert clock.now_ns == 50.0

        core.spawn("g", program())
        stats = core.run()
        assert fired == [50.0]
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

    def test_drain_deadlines_parks_on_each_pending_deadline(self):
        core = EventCore()
        fired = []

        def program():
            clock = core.clock_for("g")
            clock.call_after(10.0, lambda: fired.append("a"))
            clock.call_after(30.0, lambda: fired.append("b"))
            yield from drain_deadlines(clock)

        core.spawn("g", program())
        stats = core.run()
        assert fired == ["a", "b"]
        assert core.clock_for("g").now_ns == 30.0
        assert stats.guests_fast_forwarded == 2

    def test_drain_deadlines_skips_cancelled(self):
        core = EventCore()
        fired = []

        def program():
            clock = core.clock_for("g")
            doomed = clock.call_after(10.0, lambda: fired.append("doomed"))
            clock.call_after(20.0, lambda: fired.append("kept"))
            doomed.cancel()
            yield from drain_deadlines(clock)

        core.spawn("g", program())
        core.run()
        assert fired == ["kept"]

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
            clock = core.clock_for("g")
            clock.call_after(5.0, lambda: None)
            yield 5.0

        core.spawn("g", program())
        stats = core.run()
        assert dispatched.value - before[0] == stats.events_dispatched
        assert forwarded.value - before[1] == stats.guests_fast_forwarded
        assert stats.to_dict()["heap_high_water"] == stats.heap_high_water


class TestParkAndKick:
    """The serving extensions: PARK/unpark, kicks, and timed spawns."""

    def test_parked_runner_survives_run_and_resumes_on_kick(self):
        core = EventCore()
        log = []

        def program():
            log.append("before")
            yield PARK
            log.append("after")

        core.spawn("g", program())
        core.run()
        assert log == ["before"]  # quiescent with the runner parked
        assert core.is_parked("g")
        core.kick("g", 40.0)
        core.run()
        assert log == ["before", "after"]
        assert not core.is_parked("g")
        assert core.clock_for("g").now_ns == 40.0

    def test_unpark_requires_a_parked_runner(self):
        core = EventCore()

        def program():
            yield None

        core.spawn("g", program())
        with pytest.raises(EventCoreError):
            core.unpark("g")
        with pytest.raises(EventCoreError):
            core.unpark("missing")

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


class TestGuestShutdown:
    def _guest(self):
        from repro.core.variants import Variant
        from repro.simcore.guest import variant_guest

        return variant_guest(Variant.LUPINE_NOKML, app="redis")

    def test_shutdown_drains_pending_deadlines(self):
        guest = self._guest()
        fired = []
        guest.clock.call_after(5e9, lambda: fired.append(guest.clock.now_ns))
        guest.shutdown()
        assert fired == [5e9]
        assert guest.uptime_ns == 5e9


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
