"""The sequential fleet loop: every guest simulated in turn.

:meth:`repro.core.orchestrator.Fleet.simulate` simulates one guest per
application cohort and replays its manifest entry for the other
members.  This oracle draws the same application mix and runs *every*
guest through build, boot, serve and shutdown on its own default clock,
one at a time, so ``tests/test_shard_fleet.py`` can require the two
manifests to be byte-identical.
"""

from __future__ import annotations

import random

from repro.apps.registry import top20_in_popularity_order
from repro.core.orchestrator import (
    Fleet,
    FleetSimulation,
    KernelOrchestrator,
    KernelPolicy,
)
from repro.simcore.guest import Guest


def simulate_sequential(
    count: int,
    policy: KernelPolicy = KernelPolicy.GENERAL,
    seed: int = 0,
    requests_per_guest: int = 32,
    kml: bool = True,
) -> FleetSimulation:
    """What ``Fleet.simulate`` with the same arguments must return."""
    orchestrator = KernelOrchestrator(policy=policy, kml=kml)
    apps = top20_in_popularity_order()
    drawn = random.Random(seed).choices(
        apps, weights=[app.downloads_billions for app in apps], k=count
    )
    entries = [
        Fleet._run_guest(
            Guest(Fleet._guest_spec(orchestrator, index, app),
                  unikernel=orchestrator.unikernel_for(app)),
            app, requests_per_guest,
        )
        for index, app in enumerate(drawn)
    ]
    return FleetSimulation(
        policy=policy, seed=seed, count=count, entries=entries,
        build_count=orchestrator.build_count,
    )
