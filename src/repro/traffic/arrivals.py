"""Seeded open-loop arrival generators for the traffic-driven fleet.

The paper's throughput and boot-time results (Figs 7/9/10) become an
operator tradeoff only when boot cost lands inside a *request latency
distribution* -- which requires open-loop traffic: arrivals happen when
the trace says they happen, whether or not a guest is warm.  This module
produces those traces:

- :func:`poisson_trace` -- constant-rate memoryless arrivals;
- :func:`diurnal_trace` -- a nonhomogeneous Poisson process whose rate
  follows a raised-cosine day/night curve (peaks spawn guests, troughs
  idle them out -- the scale-to-zero churn that makes cold boots appear
  in the tail);
- :func:`bursty_trace` -- an on/off modulated process (burst storms).

Every generator is a pure function of ``(spec, seed)``: seeds are folded
through :class:`random.Random` with *string* seeding (SHA-512 based in
CPython), so the sequence is independent of ``PYTHONHASHSEED``.  The app
of each arrival is drawn from a seeded Zipf over the curated serving
profiles (:func:`zipf_app_mix`), most-popular-first -- the MultiK-style
"many specialized kernels, skewed demand" mix.

:class:`ArrivalSource` adapts a trace to the global event heap: it
draws each next arrival, whose instant the arrivals program waits for on
the heap, and hands it over once the *arrivals clock* (obtained from
``EventCore.clock_for``) has reached that instant.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence

#: Virtual nanoseconds per trace second.
_NS = 1e9


@dataclass(frozen=True)
class TraceSpec:
    """The declarative recipe for one arrival trace (manifest-canonical).

    ``kind`` selects the generator; fields irrelevant to a kind stay at
    their defaults and are omitted from :meth:`to_manifest`.  Use the
    :func:`poisson_trace` / :func:`diurnal_trace` / :func:`bursty_trace`
    constructors rather than instantiating directly.
    """

    kind: str
    requests: int
    mean_rps: float
    #: Diurnal: day/night period and modulation depth (rate swings
    #: between ``mean*(1-amplitude)`` and ``mean*(1+amplitude)``).
    period_s: float = 60.0
    amplitude: float = 0.95
    #: Bursty: on/off phase lengths and their rates.
    on_s: float = 1.0
    off_s: float = 4.0
    on_rps: float = 0.0
    off_rps: float = 0.0
    #: Zipf skew of the app mix over the curated serving profiles.
    zipf_s: float = 1.1

    def to_manifest(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "kind": self.kind,
            "requests": self.requests,
            "zipf_s": self.zipf_s,
        }
        if self.kind in ("poisson", "diurnal"):
            doc["mean_rps"] = self.mean_rps
        if self.kind == "diurnal":
            doc["period_s"] = self.period_s
            doc["amplitude"] = self.amplitude
        if self.kind == "bursty":
            doc["on_s"] = self.on_s
            doc["off_s"] = self.off_s
            doc["on_rps"] = self.on_rps
            doc["off_rps"] = self.off_rps
        return doc


def poisson_trace(requests: int, mean_rps: float,
                  zipf_s: float = 1.1) -> TraceSpec:
    """Constant-rate memoryless arrivals."""
    return TraceSpec(kind="poisson", requests=requests, mean_rps=mean_rps,
                     zipf_s=zipf_s)


def diurnal_trace(requests: int, mean_rps: float, period_s: float = 60.0,
                  amplitude: float = 0.95, zipf_s: float = 1.1) -> TraceSpec:
    """Raised-cosine day/night arrivals (starts at the trough)."""
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError("diurnal amplitude must be within [0, 1]")
    return TraceSpec(kind="diurnal", requests=requests, mean_rps=mean_rps,
                     period_s=period_s, amplitude=amplitude, zipf_s=zipf_s)


def bursty_trace(requests: int, on_rps: float, off_rps: float,
                 on_s: float = 1.0, off_s: float = 4.0,
                 zipf_s: float = 1.1) -> TraceSpec:
    """On/off modulated arrivals (burst storms separated by lulls)."""
    if off_rps > on_rps:
        raise ValueError("bursty traces need on_rps >= off_rps")
    return TraceSpec(kind="bursty", requests=requests, mean_rps=0.0,
                     on_s=on_s, off_s=off_s, on_rps=on_rps, off_rps=off_rps,
                     zipf_s=zipf_s)


def _times_rng(seed: int) -> random.Random:
    # String seeding hashes via SHA-512 in CPython -- deterministic and
    # independent of PYTHONHASHSEED (tuple seeds are not).
    return random.Random(f"traffic.arrivals:{seed}")


def _mix_rng(seed: int) -> random.Random:
    return random.Random(f"traffic.mix:{seed}")


def arrival_times_ns(spec: TraceSpec, seed: int) -> Iterator[float]:
    """The trace's arrival instants in virtual ns, strictly in order."""
    rng = _times_rng(seed)
    if spec.kind == "poisson":
        yield from _homogeneous(rng, spec.requests, spec.mean_rps)
    elif spec.kind == "diurnal":
        # ``2.0 * math.pi * t`` evaluates as ``(2.0 * math.pi) * t``, so
        # binding the product once leaves every float unchanged.
        mean_rps, amplitude = spec.mean_rps, spec.amplitude
        two_pi, period_s = 2.0 * math.pi, spec.period_s
        cos = math.cos
        yield from _thinned(
            rng, spec.requests,
            max_rate=mean_rps * (1.0 + amplitude),
            rate_at=lambda t: mean_rps * (
                1.0 - amplitude * cos(two_pi * t / period_s)
            ),
        )
    elif spec.kind == "bursty":
        cycle = spec.on_s + spec.off_s
        yield from _thinned(
            rng, spec.requests,
            max_rate=spec.on_rps,
            rate_at=lambda t: (
                spec.on_rps if (t % cycle) < spec.on_s else spec.off_rps
            ),
        )
    else:
        raise ValueError(f"unknown trace kind {spec.kind!r}")


def _homogeneous(rng: random.Random, requests: int,
                 rate: float) -> Iterator[float]:
    """Exponential gaps at *rate*, drawn as ``rng.expovariate(rate)``
    computes them (``-log(1.0 - random()) / rate``), without its call."""
    if rate <= 0.0:
        raise ValueError("arrival rate must be positive")
    draw, log = rng.random, math.log
    t = 0.0
    for _ in range(requests):
        t += -log(1.0 - draw()) / rate
        yield t * _NS


def _thinned(rng: random.Random, requests: int, max_rate: float,
             rate_at) -> Iterator[float]:
    """Nonhomogeneous Poisson by thinning against the envelope rate.

    Each candidate gap is ``rng.expovariate(max_rate)``, inlined as in
    :func:`_homogeneous`; the same ``random()`` calls in the same order.
    """
    if max_rate <= 0.0:
        raise ValueError("peak arrival rate must be positive")
    draw, log = rng.random, math.log
    t = 0.0
    emitted = 0
    while emitted < requests:
        t += -log(1.0 - draw()) / max_rate
        if draw() * max_rate <= rate_at(t):
            emitted += 1
            yield t * _NS


def zipf_app_mix(apps: Sequence[str], spec: TraceSpec,
                 seed: int) -> Iterator[str]:
    """Per-arrival app draws: seeded Zipf over *apps* (rank = position).

    *apps* must already be most-popular-first (the router passes the
    curated serving profiles in registry popularity order); rank ``k``
    gets weight ``1 / (k+1)**zipf_s``.  Each draw is the one
    ``rng.choices(apps, weights=weights)`` makes -- the same ``random()``
    call, scaled and bisected the same way -- over weights accumulated
    once per trace instead of once per arrival.
    """
    if not apps:
        raise ValueError("the app mix needs at least one app")
    draw = _mix_rng(seed).random
    cumulative = list(accumulate(
        1.0 / (rank + 1) ** spec.zipf_s for rank in range(len(apps))
    ))
    total = cumulative[-1] + 0.0
    last = len(apps) - 1
    while True:
        yield apps[bisect(cumulative, draw() * total, 0, last)]


@dataclass(frozen=True)
class Arrival:
    """One request arrival: who it is for and when it lands."""

    index: int
    app: str
    arrival_ns: float


class ArrivalSource:
    """Draws each next arrival and hands it over once it is reached.

    One instance per serving run.  :meth:`arm_next` draws the next
    ``(time, app)`` and returns its instant; the arrivals program waits
    for that instant on the heap, or lands the arrivals clock there
    itself (see :func:`~repro.traffic.serve._arrivals_program`).
    :meth:`take` then hands the drawn :class:`Arrival` to the router,
    and refuses to before the clock has reached it.

    A fault hang on the arrival path advances the arrivals clock, which
    may push ``now`` past upcoming trace instants; those arrivals are
    delivered immediately (clamped to ``now``), counted in
    :attr:`clamped`, deterministically.

    The trace is drawn one instant ahead: :attr:`lookahead_ns` is the
    trace instant the next :meth:`arm_next` draws (before any clamping),
    which is how the router knows whether a warm hit it serves inline
    completes before the next arrival lands.
    """

    def __init__(self, spec: TraceSpec, seed: int, clock,
                 apps: Sequence[str]) -> None:
        self.spec = spec
        self.clock = clock
        self._times = arrival_times_ns(spec, seed)
        self._mix = zipf_app_mix(apps, spec, seed)
        self._index = 0
        self._drawn: Optional[Arrival] = None
        #: The trace instant after the drawn one (None: the trace ends).
        self.lookahead_ns: Optional[float] = next(self._times, None)
        self.clamped = 0

    def arm_next(self) -> Optional[float]:
        """Draw the next arrival; returns its instant (None: trace done)."""
        t = self.lookahead_ns
        if t is None:
            return None
        self.lookahead_ns = next(self._times, None)
        arrival = Arrival(index=self._index, app=next(self._mix),
                          arrival_ns=max(t, self.clock.now_ns))
        self._index += 1
        if arrival.arrival_ns > t:
            self.clamped += 1
        self._drawn = arrival
        return arrival.arrival_ns

    def take(self) -> Arrival:
        """The drawn arrival, once the arrivals clock has reached it."""
        arrival = self._drawn
        if arrival is None or self.clock.now_ns < arrival.arrival_ns:
            raise RuntimeError("no delivered arrival pending")
        self._drawn = None
        return arrival


def curated_apps() -> List[str]:
    """The serving-profile apps, most-popular-first (the Zipf ranks)."""
    from repro.apps.registry import top20_in_popularity_order
    from repro.core.orchestrator import serving_profile

    return [
        app.name for app in top20_in_popularity_order()
        if serving_profile(app.name) is not None
    ]
