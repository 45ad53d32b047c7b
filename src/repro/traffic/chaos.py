"""The stock serving fault schedule.

:func:`default_serving_schedule` arms every serving-path fault site --
guest crash, guest hang, corrupted-image boot failure, arrival fault --
at the per-attempt rates of :data:`SERVE_CHAOS_RATES`, seeded by
:data:`SERVE_CHAOS_SEED` by default.  ``fleet-serve --chaos`` serves
under it, and ``bench-serve`` runs its two faulted scenarios under it
and asserts the serving resilience invariants: faulted reruns and
worker-process sweeps are byte-identical, an installed-but-empty plane
is invisible, and the fleet recovers (error rate below the fault mass)
instead of collapsing.  See ``docs/RESILIENCE.md`` ("Fleet-scale
failure model").
"""

from __future__ import annotations

from repro.faults.plane import FaultPlane

#: The stock seed for the serving fault schedule.
SERVE_CHAOS_SEED = 77

#: Per-attempt injection probabilities of the stock schedule.  Their sum
#: bounds the error rate a collapsed control plane would show; the
#: recovery invariant requires the *observed* error rate to stay below
#: it (retries + restarts must absorb nearly all injected failures).
SERVE_CHAOS_RATES = {
    "guest.crash": 0.004,
    "guest.hang": 0.0015,
    "guest.boot_fail": 0.02,
    "traffic.arrival": 0.0005,
}


def default_serving_schedule(seed: int) -> FaultPlane:
    """The stock serving chaos schedule: every serving-path site.

    Probabilities are moderate on purpose: the fleet should *recover*
    (retries and restarts, not errors) while every failure mode --
    mid-request crash, watchdog-killed hang, corrupted-image boot
    failure, dropped arrival -- appears many times over the canonical
    100k-request trace.  Every decision is deterministic in
    ``(seed, site, scope, call)``.
    """
    plane = FaultPlane(seed=seed)
    plane.configure("guest.crash",
                    probability=SERVE_CHAOS_RATES["guest.crash"],
                    message="injected guest crash mid-request")
    plane.configure("guest.hang",
                    probability=SERVE_CHAOS_RATES["guest.hang"],
                    message="injected guest hang (watchdog bait)")
    plane.configure("guest.boot_fail",
                    probability=SERVE_CHAOS_RATES["guest.boot_fail"],
                    message="injected corrupted-image boot failure")
    plane.configure("traffic.arrival",
                    probability=SERVE_CHAOS_RATES["traffic.arrival"],
                    message="injected arrival-path fault")
    return plane

