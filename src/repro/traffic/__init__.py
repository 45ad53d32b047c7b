"""Traffic-driven fleet serving: open-loop arrivals over the EventCore.

PR 6 gave the fleet one global virtual-time heap
(:class:`~repro.simcore.eventcore.EventCore`); this package drives it
with *traffic* instead of fixed per-guest request counts -- the
Firecracker-study framing of serverless fleets, with MultiK-style
routing across specialized kernels:

- :mod:`repro.traffic.arrivals` -- seeded open-loop traces (Poisson,
  diurnal, bursty) with a Zipf-skewed app mix, armed as deadlines on
  the arrivals clock;
- :mod:`repro.traffic.policy` -- warm-pool/keepalive policies
  (scale-to-zero idle timeout, pool floors/ceilings, pre-warm);
- :mod:`repro.traffic.router` -- warm-pool dispatch, cold boots (full
  Fig 2 + Fig 7 pipeline inside the latency tail), capacity queues,
  retry budgets, per-app circuit breakers, and load shedding;
- :mod:`repro.traffic.supervisor` -- the self-healing control plane:
  watchdog deadlines, exponential-backoff restarts, crash-loop
  quarantine, all as one EventCore program
  (:class:`~repro.traffic.supervisor.Supervisor`), tuned by a
  :class:`~repro.traffic.supervisor.ResiliencePolicy`;
- :mod:`repro.traffic.serve` -- one run end-to-end, producing the
  canonical :class:`~repro.traffic.serve.ServingReport` manifest
  (schema v2: availability + resilience sections);
- :mod:`repro.traffic.chaos` -- the stock seeded guest-fault schedule
  (``fleet-serve --chaos`` and ``bench-serve``'s faulted scenarios);
- :mod:`repro.traffic.bench` -- the ``bench-serve`` gate, the
  rerun/fan-out/empty-plane digest assertions included.

Determinism contract: a :class:`~repro.traffic.serve.ServeSpec` fully
determines the report manifest -- same seed, byte-identical digest --
under every policy, with or without an installed fault schedule.
Conservation contract: every arrival settles in exactly one
disposition, ``arrivals == completed + failed + shed + dropped``.
See ``docs/SERVING.md`` and ``docs/RESILIENCE.md``.
"""

from repro.traffic.arrivals import curated_apps
from repro.traffic.policy import named_policy
from repro.traffic.serve import ServeSpec, run_serving

__all__ = ["ServeSpec", "curated_apps", "named_policy", "run_serving"]
