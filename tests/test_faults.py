"""Tests for the deterministic fault-injection plane."""

import pytest

from repro import faults
from repro.faults import (
    FaultHang,
    FaultInjected,
    FaultPlane,
    FaultSpec,
    corrupt_text,
    fault_site,
)
from repro.observe import TRACER
from repro.simcore.context import current_clock


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    """Every test starts and ends with no plane installed."""
    faults.deactivate()
    yield
    faults.deactivate()


def _decisions(plane, site, calls, scope=None):
    """Which of *calls* sequential calls at *site* inject (1-based)."""
    fired = []
    ctx = faults.experiment_scope(scope) if scope else None
    if ctx is not None:
        ctx.__enter__()
    try:
        for call in range(1, calls + 1):
            if plane.decide(site) is not None:
                fired.append(call)
    finally:
        if ctx is not None:
            ctx.__exit__(None, None, None)
    return fired


class TestScheduling:
    def test_same_seed_same_decisions(self):
        first = FaultPlane(seed=42)
        first.configure("site", probability=0.3)
        second = FaultPlane(seed=42)
        second.configure("site", probability=0.3)
        assert _decisions(first, "site", 50) == _decisions(second, "site", 50)

    def test_different_seeds_differ(self):
        a = FaultPlane(seed=1)
        a.configure("site", probability=0.3)
        b = FaultPlane(seed=2)
        b.configure("site", probability=0.3)
        assert _decisions(a, "site", 100) != _decisions(b, "site", 100)

    def test_decision_independent_of_other_sites(self):
        # Interleaving draws at another site must not shift this site's
        # schedule: decisions are stateless in (seed, site, scope, call).
        plain = FaultPlane(seed=7)
        plain.configure("site", probability=0.3)
        expected = _decisions(plain, "site", 30)

        noisy = FaultPlane(seed=7)
        noisy.configure("site", probability=0.3)
        noisy.configure("other", probability=0.9)
        fired = []
        for call in range(1, 31):
            noisy.decide("other")
            if noisy.decide("site") is not None:
                fired.append(call)
        assert fired == expected

    def test_scopes_have_independent_call_counters(self):
        plane = FaultPlane(seed=3)
        plane.configure("site", nth_calls=(2,))
        assert _decisions(plane, "site", 3, scope="fig5") == [2]
        # A fresh scope restarts the per-site call index at 1.
        plane2 = FaultPlane(seed=3)
        plane2.configure("site", nth_calls=(2,))
        _decisions(plane2, "site", 3, scope="fig5")
        assert _decisions(plane2, "site", 3, scope="fig7") == [2]

    def test_nth_calls_exact(self):
        plane = FaultPlane(seed=0)
        plane.configure("site", nth_calls=(1, 4))
        assert _decisions(plane, "site", 6) == [1, 4]

    def test_one_shot_fires_once(self):
        plane = FaultPlane(seed=0)
        plane.one_shot("site")
        assert _decisions(plane, "site", 5) == [1]
        assert plane.injected == 1

    def test_max_injections_caps(self):
        plane = FaultPlane(seed=0)
        plane.configure("site", nth_calls=(1, 2, 3), max_injections=2)
        assert _decisions(plane, "site", 5) == [1, 2]

    def test_scope_restriction(self):
        plane = FaultPlane(seed=0)
        plane.configure("site", nth_calls=(1,), scope="fig7")
        assert _decisions(plane, "site", 2, scope="fig5") == []
        assert _decisions(plane, "site", 2, scope="fig7") == [1]

    def test_reset_counters_replays_schedule(self):
        plane = FaultPlane(seed=9)
        plane.configure("site", probability=0.4)
        first = _decisions(plane, "site", 20)
        plane.reset_counters()
        assert _decisions(plane, "site", 20) == first

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="s", kind="explode")
        with pytest.raises(ValueError):
            FaultSpec(site="s", probability=1.5)


class TestInjection:
    def test_fault_site_noop_without_plane(self):
        with fault_site("anything"):
            pass  # must not raise, draw RNG, or touch metrics

    def test_unarmed_site_is_shared_and_never_swallows(self):
        assert fault_site("a") is fault_site("b")
        with pytest.raises(KeyError):
            with fault_site("a"):
                raise KeyError("body errors propagate")

    def test_armed_site_decides_at_enter(self):
        plane = FaultPlane(seed=0)
        plane.configure("site", nth_calls=(1, 3))
        body_ran = []
        with faults.activated(plane):
            site = fault_site("site")
            assert plane.injected == 0  # creating a site decides nothing
            with pytest.raises(FaultInjected):
                with site:
                    body_ran.append(1)  # call 1 injects before the body
            with fault_site("site"):
                body_ran.append(2)  # call 2 passes
            with pytest.raises(FaultInjected):
                with fault_site("site"):
                    body_ran.append(3)  # call 3 injects
            with pytest.raises(KeyError):
                with fault_site("site"):
                    raise KeyError("call 4 passes; body errors propagate")
        assert body_ran == [2]
        assert plane.injected == 2

    def test_corrupt_text_passthrough_without_plane(self):
        assert corrupt_text("site", "payload") == "payload"

    def test_raise_kind_carries_site_and_transient(self):
        plane = FaultPlane(seed=0)
        plane.one_shot("site", message="boom")
        with faults.activated(plane):
            with pytest.raises(FaultInjected) as excinfo:
                with fault_site("site"):
                    pass
        assert excinfo.value.site == "site"
        assert excinfo.value.transient is True
        assert "boom" in str(excinfo.value)

    def test_persistent_raise(self):
        plane = FaultPlane(seed=0)
        plane.one_shot("site", transient=False)
        with faults.activated(plane):
            with pytest.raises(FaultInjected) as excinfo:
                with fault_site("site"):
                    pass
        assert excinfo.value.transient is False

    def test_custom_exception_type(self):
        from repro.vmm.monitor import MonitorError

        plane = FaultPlane(seed=0)
        plane.one_shot("site", exc=MonitorError, message="no driver")
        with faults.activated(plane):
            with pytest.raises(MonitorError, match="no driver"):
                with fault_site("site"):
                    pass

    def test_hang_advances_sim_clock(self):
        plane = FaultPlane(seed=0)
        plane.one_shot("site", kind="hang", hang_ms=500.0)
        before = current_clock().now_ms
        with faults.activated(plane):
            with pytest.raises(FaultHang) as excinfo:
                with fault_site("site"):
                    pass
        assert current_clock().now_ms == pytest.approx(before + 500.0)
        assert excinfo.value.transient is False
        assert excinfo.value.hang_ms == 500.0

    def test_corrupt_truncates_half(self):
        plane = FaultPlane(seed=0)
        plane.one_shot("site", kind="corrupt")
        with faults.activated(plane):
            assert corrupt_text("site", "0123456789") == "01234"
            # One-shot: the second call passes through untouched.
            assert corrupt_text("site", "0123456789") == "0123456789"

    def test_corrupt_spec_does_not_raise_at_fault_site(self):
        plane = FaultPlane(seed=0)
        plane.configure("site", nth_calls=(1,), kind="corrupt")
        with faults.activated(plane):
            with fault_site("site"):
                pass  # corrupt faults only affect corrupt_text consumers

    def test_injection_counts_metric_and_span(self):
        from repro.observe import METRICS

        plane = FaultPlane(seed=0)
        plane.one_shot("site")
        before = METRICS.counter("faults.injected").value
        mark = TRACER.mark()
        with faults.activated(plane):
            with pytest.raises(FaultInjected):
                with fault_site("site"):
                    pass
        assert METRICS.counter("faults.injected").value == before + 1
        spans = [r for r in TRACER.records_since(mark)
                 if r.name == "fault.injected"]
        assert len(spans) == 1
        assert spans[0].attrs["site"] == "site"
        assert spans[0].attrs["kind"] == "raise"

    def test_activated_restores_previous_state(self):
        plane = FaultPlane(seed=0)
        with faults.activated(plane):
            assert faults.active_plane() is plane
        assert faults.active_plane() is None
