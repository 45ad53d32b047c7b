"""Request-cost composition for network server workloads.

A served request costs: the syscalls the server issues (through the
simulated kernel, so entry mechanism and config hooks apply), the network
stack traversals for the packets involved (config hooks again), and the
application's own userspace work (identical across kernels -- the paper
keeps the application binary unmodified).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.netstack.path import NetworkPath
from repro.syscall.dispatch import SyscallEngine


@dataclass(frozen=True)
class RequestProfile:
    """The per-request recipe for one workload."""

    name: str
    syscalls: Tuple[str, ...]
    app_ns: float
    packets_in: int = 1
    packets_out: int = 1
    handshake_packets: int = 0
    payload_bytes: int = 256


@dataclass
class LinuxServerStack:
    """A server application running on one simulated Linux kernel.

    ``engine`` and ``netpath`` are fixed for the stack's life, so what a
    request of a given profile costs apart from the jitter is planned
    once per profile (see :meth:`_plan`).
    """

    engine: SyscallEngine
    netpath: NetworkPath
    #: ``profile -> (batchable, work_ns)``, filled on first serve.
    _plans: Dict[RequestProfile, Tuple[bool, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _work_ns(self, profile: RequestProfile, base_ns: float = 0.0) -> float:
        """Network + *base_ns* cost of one request, shared by every path.

        The single source of the data/handshake formula: ``request_ns``
        folds the syscall latencies in as *base_ns*, the live-run paths
        fold in the app time -- so the analytic and driven costs cannot
        drift apart.  The fold order (``((base + data) + handshake)``)
        is load-bearing: float addition is not associative and both
        callers' historical groupings reduce to exactly this shape.
        """
        return (
            base_ns
            + (profile.packets_in + profile.packets_out)
            * self.netpath.packet_ns(profile.payload_bytes)
            + profile.handshake_packets * self.netpath.connection_packet_ns()
        )

    def _plan(self, profile: RequestProfile) -> Tuple[bool, float]:
        """``(batchable, work_ns)`` of *profile* on this stack.

        *batchable*: every syscall the profile issues is compiled in, so
        requests may take the batched fold.  *work_ns*: the network and
        app work charged after each request's syscalls.  Both are pure
        functions of the profile, the engine's config and the network
        path, so they are computed on the profile's first serve only.
        """
        plan = self._plans.get(profile)
        if plan is None:
            plan = (
                all(self.engine.supports(name) for name in profile.syscalls),
                self._work_ns(profile, profile.app_ns),
            )
            self._plans[profile] = plan
        return plan

    def request_ns(self, profile: RequestProfile) -> float:
        """Simulated time to serve one request."""
        syscall_ns = sum(
            self.engine.latency_ns(name) for name in profile.syscalls
        )
        # Userspace work is slower in ring 0? No: KML processes run the same
        # code at the same speed; only kernel work scales with -Os.
        return self._work_ns(profile, syscall_ns) + profile.app_ns

    def requests_per_second(self, profile: RequestProfile) -> float:
        return 1e9 / self.request_ns(profile)

    def run(self, profile: RequestProfile, requests: int) -> float:
        """Drive *requests* requests through the live engine; returns rps.

        Unlike :meth:`requests_per_second` this mutates engine state (the
        deterministic jitter applies), modelling a real benchmark run.

        The per-request costs are batched through
        :meth:`~repro.syscall.dispatch.SyscallEngine.invoke_batch`
        (closed-form addends, one engine call), bit-for-bit identical to
        the stepped per-request loop -- the property the
        batched-vs-stepped parity test pins.  Profiles with config-gated
        syscalls take that stepped loop to preserve its charge-then-raise
        semantics.
        """
        start = self.engine.clock_ns
        batchable, work_ns = self._plan(profile)
        if batchable:
            self.engine.invoke_batch(profile.syscalls, work_ns, requests)
        else:
            for _ in range(requests):
                for name in profile.syscalls:
                    self.engine.invoke(name)
                self.engine.cpu_work(work_ns)
        elapsed_s = (self.engine.clock_ns - start) / 1e9
        return requests / elapsed_s
