"""Tests for the simcore time authority and unified guest runtime."""

import random

import pytest

from repro.core.variants import Variant
from repro.simcore import (
    ClockError,
    Guest,
    GuestLifecycleError,
    GuestSpec,
    GuestState,
    VirtualClock,
    current_clock,
    default_clock,
    guest_for_app,
    microvm_guest,
    use_clock,
    variant_guest,
)


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now_ns == 0.0

    def test_advance_is_exact_single_addition(self):
        # The accumulator contract: advance(ns) lands on exactly
        # now + ns, one float addition -- no event-dispatch detours.
        clock = VirtualClock()
        clock.advance(0.1)
        clock.advance(0.2)
        assert clock.now_ns == 0.1 + 0.2  # bit-exact, not approx

    def test_advance_is_the_same_addition_with_or_without_events(self):
        # An empty clock takes advance's event-free branch, an armed one
        # the dispatch loop; both must fold every addend bit-identically.
        rng = random.Random(2020)
        addends = [0.1, 0.2, 0.0, 1e-9, 3.3] + [
            rng.random() * 10.0 ** rng.randint(-3, 9) for _ in range(500)
        ]
        empty, armed = VirtualClock(), VirtualClock()
        armed.call_at(1e300)
        for ns in addends:
            assert empty.advance(ns).hex() == armed.advance(ns).hex()
            assert empty.now_ns.hex() == armed.now_ns.hex()
        assert (empty.pending_events, armed.pending_events) == (0, 1)

    def test_advance_to_lands_exactly_on_target(self):
        clock = VirtualClock()
        clock.advance(1.0)
        clock.advance_to(1e9 + 0.25)
        assert clock.now_ns == 1e9 + 0.25

    def test_empty_queue_advance_to_stores_the_target(self, monkeypatch):
        clock = VirtualClock()
        clock.advance(0.1)
        ran = []
        monkeypatch.setattr(clock, "_run_to", ran.append)
        target = 0.1 + 0.2
        assert clock.advance_to(target) == target
        assert clock.now_ns.hex() == target.hex()
        assert clock.advance_to(target) == target  # to now: lands again
        assert ran == []  # no dispatch loop on an empty queue

    def test_advance_to_is_the_same_store_with_or_without_events(self):
        rng = random.Random(2020)
        empty, armed = VirtualClock(), VirtualClock()
        armed.call_at(1e300)
        target = 0.0
        for _ in range(500):
            target += rng.random() * 10.0 ** rng.randint(-3, 9)
            assert (empty.advance_to(target).hex()
                    == armed.advance_to(target).hex() == target.hex())
            assert empty.now_ns.hex() == armed.now_ns.hex()
        assert (empty.pending_events, armed.pending_events) == (0, 1)

    def test_advance_to_over_cancelled_events_still_dispatches(
            self, monkeypatch):
        # A queue holding only cancelled events is not empty: the
        # dispatch loop runs and skims them.
        clock = VirtualClock()
        fired = []
        clock.call_at(10.0, lambda: fired.append(10.0)).cancel()
        assert clock.pending_events == 0
        run_to = clock._run_to
        ran = []

        def spy(target):
            ran.append(target)
            return run_to(target)

        monkeypatch.setattr(clock, "_run_to", spy)
        assert clock.advance_to(20.0) == 20.0
        assert ran == [20.0]
        assert fired == [] and clock._events == []
        assert clock.now_ns == 20.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ClockError):
            VirtualClock().advance(-1.0)

    def test_advance_to_past_rejected(self):
        clock = VirtualClock()
        clock.advance(100.0)
        with pytest.raises(ClockError):
            clock.advance_to(50.0)

    def test_jump_to_moves_backward_without_dispatch(self):
        clock = VirtualClock()
        fired = []
        clock.call_after(10.0, lambda: fired.append("x"))
        clock.advance(5.0)
        clock.jump_to(0.0)  # legacy reset-style rebase
        assert clock.now_ns == 0.0
        assert not fired
        clock.advance(20.0)  # deadline at absolute 10.0 still armed
        assert fired == ["x"]

    def test_ms_view(self):
        clock = VirtualClock()
        clock.advance_ms(1.5)
        assert clock.now_ms == pytest.approx(1.5)

    def test_events_fire_in_deadline_order(self):
        clock = VirtualClock()
        order = []
        clock.call_after(30.0, lambda: order.append("c"))
        clock.call_after(10.0, lambda: order.append("a"))
        clock.call_after(20.0, lambda: order.append("b"))
        clock.advance(40.0)
        assert order == ["a", "b", "c"]

    def test_event_sees_its_own_deadline_as_now(self):
        clock = VirtualClock()
        seen = []
        clock.call_after(25.0, lambda: seen.append(clock.now_ns))
        clock.advance(100.0)
        assert seen == [25.0]

    def test_cancelled_event_does_not_fire(self):
        clock = VirtualClock()
        fired = []
        event = clock.call_after(10.0, lambda: fired.append("x"))
        event.cancel()
        clock.advance(20.0)
        assert not fired

    def test_cancel_before_fire_returns_true_once(self):
        clock = VirtualClock()
        event = clock.call_after(10.0, lambda: None)
        assert event.cancel() is True
        assert event.cancel() is False  # already cancelled

    def test_cancel_after_fire_returns_false(self):
        # The event-lifecycle bug: _run_to never marked popped events, so
        # cancel() after dispatch claimed to have prevented a callback
        # that had already run.
        clock = VirtualClock()
        fired = []
        event = clock.call_after(10.0, lambda: fired.append("x"))
        clock.advance(20.0)
        assert fired == ["x"]
        assert event.fired is True
        assert event.cancel() is False

    def test_cancel_inside_own_callback_returns_false(self):
        clock = VirtualClock()
        results = []
        event = clock.call_after(
            10.0, lambda: results.append(event.cancel())
        )
        clock.advance(20.0)
        assert results == [False]

    def test_fired_event_without_callback_reports_fired(self):
        clock = VirtualClock()
        event = clock.call_after(5.0)  # pure deadline, no callback
        clock.advance(10.0)
        assert event.fired is True
        assert event.cancel() is False

    def test_cancelled_events_compacted_out_of_heap(self):
        # Cancelled 2MSL-style timers must not accumulate until their
        # distant deadlines: once more than half of a non-trivial queue
        # is cancelled, the heap is compacted asyncio-style.
        clock = VirtualClock()
        events = [clock.call_after(60e9 + i) for i in range(1000)]
        for event in events[:-1]:
            event.cancel()
        assert clock.pending_events == 1
        assert len(clock._events) < VirtualClock.COMPACT_MIN_EVENTS

    def test_heap_bounded_under_cancel_heavy_churn(self):
        clock = VirtualClock()
        for _ in range(50):
            batch = [clock.call_after(60e9) for _ in range(100)]
            for event in batch:
                event.cancel()
            clock.advance(1.0)
            assert len(clock._events) <= 2 * VirtualClock.COMPACT_MIN_EVENTS

    def test_next_deadline_skips_cancelled(self):
        clock = VirtualClock()
        first = clock.call_after(10.0)
        clock.call_after(25.0)
        assert clock.next_deadline_ns() == 10.0
        first.cancel()
        assert clock.next_deadline_ns() == 25.0

    def test_event_in_the_past_rejected(self):
        clock = VirtualClock()
        clock.advance(100.0)
        with pytest.raises(ClockError):
            clock.call_at(50.0, lambda: None)

    def test_callbacks_may_schedule_followups(self):
        clock = VirtualClock()
        fired = []
        clock.call_after(
            10.0,
            lambda: clock.call_after(10.0, lambda: fired.append(clock.now_ns)),
        )
        clock.advance(30.0)
        assert fired == [20.0]

    def test_reset_clears_time_and_events(self):
        clock = VirtualClock()
        fired = []
        clock.call_after(10.0, lambda: fired.append("x"))
        clock.advance(5.0)
        clock.reset()
        assert clock.now_ns == 0.0
        clock.advance(20.0)
        assert not fired

    def test_cancel_after_reset_leaves_the_count_alone(self):
        # An event reset() dropped is no longer in the heap: cancelling it
        # must neither succeed nor change pending_events.
        clock = VirtualClock()
        event = clock.call_at(100.0)
        clock.reset()
        assert event.cancel() is False
        assert clock.pending_events == 0
        clock.call_at(50.0)
        assert clock.pending_events == 1


class TestClockContext:
    def test_default_clock_is_process_wide(self):
        assert current_clock() is default_clock()

    def test_use_clock_scopes_the_active_clock(self):
        mine = VirtualClock()
        with use_clock(mine):
            assert current_clock() is mine
            inner = VirtualClock()
            with use_clock(inner):
                assert current_clock() is inner
            assert current_clock() is mine
        assert current_clock() is not mine

    def test_use_clock_pops_on_error_and_yields_the_clock(self):
        mine = VirtualClock()
        with pytest.raises(KeyError):
            with use_clock(mine) as entered:
                assert entered is mine
                raise KeyError("body errors propagate")
        assert current_clock() is default_clock()

    def test_tracer_sim_is_a_view_over_the_active_clock(self):
        from repro.observe import TRACER

        mine = VirtualClock()
        with use_clock(mine):
            mine.advance_ms(7.0)
            with TRACER.span("test.sim_view") as record:
                mine.advance_ms(2.0)
        assert record.sim_start_ms == pytest.approx(7.0)
        assert record.sim_duration_ms == pytest.approx(2.0)


class TestGuestLifecycle:
    def test_build_binds_every_layer_to_the_guest_clock(self):
        guest = variant_guest(Variant.LUPINE_NOKML, app="redis")
        assert guest.state is GuestState.BUILT
        assert guest.engine.clock is guest.clock
        assert guest.scheduler.clock is guest.clock
        assert guest.tcp.clock is guest.clock

    def test_boot_advances_only_this_guests_clock(self):
        before = default_clock().now_ns
        guest = variant_guest(Variant.LUPINE_NOKML, app="redis")
        report = guest.boot()
        assert guest.state is GuestState.BOOTED
        assert report.total_ms > 0
        assert guest.clock.now_ms == pytest.approx(report.total_ms)
        assert default_clock().now_ns == before

    def test_serve_runs_on_the_guest_clock(self):
        from repro.workloads.redis import REDIS_GET

        guest = variant_guest(Variant.LUPINE_NOKML, app="redis")
        rate = guest.serve(REDIS_GET, 50)
        assert rate > 0
        assert guest.requests_served == 50
        assert guest.uptime_ns == guest.engine.clock_ns

    def test_lifecycle_order_enforced(self):
        guest = Guest(GuestSpec(name="g"))
        with pytest.raises(GuestLifecycleError):
            guest.boot()
        guest.build()
        with pytest.raises(GuestLifecycleError):
            guest.build()
        guest.shutdown()
        with pytest.raises(GuestLifecycleError):
            guest.serve(None, 1)

    def test_full_image_guest_is_monitor_checked(self):
        from repro.observe import METRICS

        counter = METRICS.counter("vmm.guest_checks")
        before = counter.value
        guest = guest_for_app(Variant.LUPINE_NOKML, "redis")
        guest.boot()
        assert counter.value == before + 1
        assert guest.unikernel is not None
        assert guest.boot_report.system == guest.kernel.config.name

    def test_kernel_only_guest_is_not_monitor_checked(self):
        from repro.observe import METRICS

        counter = METRICS.counter("vmm.guest_checks")
        before = counter.value
        microvm_guest().boot()
        assert counter.value == before

    def test_hello_world_guest_has_no_network(self):
        guest = variant_guest(Variant.LUPINE_NOKML)  # bare hello-world
        assert guest.netpath is None
        with pytest.raises(GuestLifecycleError):
            guest.server_stack

    def test_full_image_requires_an_app(self):
        with pytest.raises(GuestLifecycleError):
            Guest(GuestSpec(
                name="g", variant=Variant.LUPINE_NOKML, full_image=True
            )).build()

    def test_two_guests_have_independent_timelines(self):
        from repro.workloads.redis import REDIS_GET

        first = variant_guest(Variant.LUPINE_NOKML, app="redis")
        second = variant_guest(Variant.LUPINE_NOKML, app="redis")
        first.serve(REDIS_GET, 10)
        assert first.clock.now_ns > 0
        assert second.clock.now_ns == 0.0


class TestFleetSimulate:
    def test_same_seed_identical_manifest(self):
        from repro.core.orchestrator import Fleet, KernelPolicy

        first = Fleet.simulate(40, policy=KernelPolicy.GENERAL, seed=11)
        second = Fleet.simulate(40, policy=KernelPolicy.GENERAL, seed=11)
        assert first.manifest() == second.manifest()
        assert first.manifest_digest == second.manifest_digest

    def test_different_seed_different_mix(self):
        from repro.core.orchestrator import Fleet, KernelPolicy

        first = Fleet.simulate(40, policy=KernelPolicy.GENERAL, seed=11)
        second = Fleet.simulate(40, policy=KernelPolicy.GENERAL, seed=12)
        assert first.manifest_digest != second.manifest_digest

    def test_general_policy_shares_one_kernel(self):
        from repro.core.orchestrator import Fleet, KernelPolicy

        simulation = Fleet.simulate(30, policy=KernelPolicy.GENERAL, seed=5)
        assert simulation.distinct_kernels == 1

    def test_per_app_policy_diversifies_kernels(self):
        from repro.core.orchestrator import Fleet, KernelPolicy

        simulation = Fleet.simulate(60, policy=KernelPolicy.PER_APP, seed=5)
        assert simulation.distinct_kernels > 1

    def test_guests_boot_and_serve(self):
        from repro.core.orchestrator import Fleet, KernelPolicy

        simulation = Fleet.simulate(30, policy=KernelPolicy.GENERAL, seed=3)
        assert len(simulation.entries) == 30
        assert all(entry.boot_ms > 0 for entry in simulation.entries)
        served = [e for e in simulation.entries if e.requests]
        assert served, "the app mix should include serving workloads"
        assert all(entry.rps > 0 for entry in served)
        assert all(
            entry.uptime_ns > 0 for entry in simulation.entries
        )  # boot advanced every guest's own clock

    def test_empty_fleet_is_well_formed_but_negative_rejected(self):
        from repro.core.orchestrator import Fleet

        # Zero guests is a valid (empty) fleet with a defined manifest;
        # only negative sizes are rejected.  The full empty-manifest
        # shape is pinned in tests/test_eventcore.py.
        assert Fleet.simulate(0).manifest()["guests"] == []
        with pytest.raises(ValueError):
            Fleet.simulate(-1)
