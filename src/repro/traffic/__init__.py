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

from repro.traffic.arrivals import (
    Arrival,
    ArrivalSource,
    TraceSpec,
    bursty_trace,
    curated_apps,
    diurnal_trace,
    poisson_trace,
    zipf_app_mix,
)
from repro.traffic.chaos import SERVE_CHAOS_SEED, default_serving_schedule
from repro.traffic.policy import (
    FIXED_POOL,
    SCALE_TO_ZERO,
    WarmPoolPolicy,
    named_policy,
    policy_names,
)
from repro.traffic.router import (
    GuestWorker,
    LatencySample,
    Request,
    Router,
    ServingInvariantError,
)
from repro.traffic.serve import (
    SERVE_SCHEMA_VERSION,
    ServeSpec,
    ServingReport,
    run_serving,
    run_serving_many,
)
from repro.traffic.supervisor import (
    DEFAULT_RESILIENCE,
    CircuitBreaker,
    ResiliencePolicy,
    Supervisor,
)

__all__ = [
    "Arrival",
    "ArrivalSource",
    "TraceSpec",
    "bursty_trace",
    "curated_apps",
    "diurnal_trace",
    "poisson_trace",
    "zipf_app_mix",
    "SERVE_CHAOS_SEED",
    "default_serving_schedule",
    "FIXED_POOL",
    "SCALE_TO_ZERO",
    "WarmPoolPolicy",
    "named_policy",
    "policy_names",
    "GuestWorker",
    "LatencySample",
    "Request",
    "Router",
    "ServingInvariantError",
    "SERVE_SCHEMA_VERSION",
    "ServeSpec",
    "ServingReport",
    "run_serving",
    "run_serving_many",
    "DEFAULT_RESILIENCE",
    "CircuitBreaker",
    "ResiliencePolicy",
    "Supervisor",
]
