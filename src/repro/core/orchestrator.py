"""Kernel orchestration: managing specialized kernels for many apps.

The paper's conclusion and its MultiK citation sketch the deployment
question Lupine raises: run one specialized kernel per application, or one
``lupine-general`` kernel for everything?  Section 4 answers it empirically
(general costs ≤4% throughput, +2 ms boot, slightly larger image); this
module turns that decision into an operator-facing policy object with a
build cache, and :meth:`Fleet.simulate` stands a seeded fleet of guests up
under it the way the paper's evaluation was.
"""

from __future__ import annotations

import enum
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.apps.app import Application
from repro.core.lupine import LupineBuilder, LupineUnikernel
from repro.core.variants import Variant, variant_fingerprint


class KernelPolicy(enum.Enum):
    """Which kernel to give each application."""

    #: One specialized kernel per application (maximum specialization).
    PER_APP = "per-app"
    #: One lupine-general kernel shared by all (the paper's recommendation
    #: for general users; Section 4.1).
    GENERAL = "general"


class Fleet:
    """A seeded fleet of guests under one kernel policy."""

    @classmethod
    def simulate(
        cls,
        count: int,
        policy: KernelPolicy = KernelPolicy.GENERAL,
        seed: int = 0,
        requests_per_guest: int = 32,
        kml: bool = True,
    ) -> "FleetSimulation":
        """Boot and drive *count* guests under *policy*; fully deterministic.

        Draws an application mix from the registry's top-20 (weighted by
        download popularity, seeded PRNG), runs every guest through the
        unified :class:`~repro.simcore.guest.Guest` lifecycle -- full
        Figure 2 image pipeline, boot, then *requests_per_guest* requests
        of the app's workload profile -- each on its own virtual clock.
        Kernels come from :meth:`KernelOrchestrator.unikernel_for`, so
        the per-app memo is live and ``build_count`` lands in the
        manifest.  The same *seed* always yields a byte-identical
        manifest.

        Guests with the same application (hence identical spec, kernel
        and request profile) simulate one *representative* whose entry is
        replayed across the cohort -- see :meth:`_simulate_cohort`.
        """
        from repro.apps.registry import top20_in_popularity_order

        if count < 0:
            raise ValueError(f"fleet size cannot be negative (got {count})")
        orchestrator = KernelOrchestrator(policy=policy, kml=kml)
        if count == 0:
            # Empty-but-well-formed: the manifest (and its digest) is
            # defined for a zero-guest fleet instead of raising.
            return FleetSimulation(
                policy=policy, seed=seed, count=0, entries=[],
                build_count=orchestrator.build_count,
            )
        apps = top20_in_popularity_order()
        rng = random.Random(seed)
        drawn = rng.choices(
            apps, weights=[app.downloads_billions for app in apps], k=count
        )
        specs = [
            cls._guest_spec(orchestrator, index, app)
            for index, app in enumerate(drawn)
        ]
        cls._validate_specs(specs)
        entries = cls._simulate_cohort(
            orchestrator, drawn, specs, requests_per_guest
        )
        return FleetSimulation(
            policy=policy, seed=seed, count=count, entries=entries,
            build_count=orchestrator.build_count,
        )

    @staticmethod
    def _validate_specs(specs) -> None:
        """Reject duplicate guest names up front, before any build work."""
        seen: Set[str] = set()
        for spec in specs:
            if spec.name in seen:
                raise ValueError(
                    f"duplicate guest name {spec.name!r} in fleet specs"
                )
            seen.add(spec.name)

    @classmethod
    def _guest_spec(cls, orchestrator: "KernelOrchestrator", index: int,
                    app: Application):
        from repro.simcore.guest import GuestSpec

        return GuestSpec(
            name=f"guest-{index:05d}",
            variant=orchestrator.variant_for(app),
            app=app.name,
            full_image=True,
        )

    @staticmethod
    def _run_guest(guest, app: Application,
                   requests_per_guest: int) -> "GuestManifestEntry":
        """Build, boot, serve and retire *guest*; its manifest entry."""
        guest.build()
        boot_ms = guest.boot().total_ms
        profile = _workload_profile(app.name)
        requests, rps = 0, None
        if profile is not None and guest.netpath is not None:
            requests = requests_per_guest
            rps = guest.serve(profile, requests)
        guest.shutdown()
        return GuestManifestEntry(
            guest=guest.spec.name,
            app=app.name,
            kernel=guest.kernel.config.name,
            fingerprint=guest.kernel.fingerprint,
            boot_ms=boot_ms,
            uptime_ns=guest.uptime_ns,
            requests=requests,
            rps=rps,
        )

    @classmethod
    def _simulate_cohort(
        cls,
        orchestrator: "KernelOrchestrator",
        drawn: List[Application],
        specs,
        requests_per_guest: int,
    ) -> List["GuestManifestEntry"]:
        """Cohort-vectorized fold: one representative per app cohort.

        Two fleet guests drawn for the same application are identical in
        every manifest field except their name: the spec (variant, app,
        full_image) is a pure function of app + policy, the unikernel
        comes from the orchestrator's per-app memo, and each guest runs
        boot and the ``invoke_batch`` serving fold on a fresh clock and
        a fresh engine (``call_count`` starts at 0), so boot_ms,
        uptime_ns, requests and rps replay bit-identically.  The fold
        therefore simulates the cohort's *first* guest and replays its
        entry -- name swapped -- for every later member, instead of
        re-simulating guest by guest.  Byte-identical to running every
        guest in turn: the test oracle ``tests/oracles/fleet.py`` does
        that, and ``tests/test_shard_fleet.py`` compares the two.

        Representative clocks come from a fold-local
        :class:`~repro.simcore.eventcore.EventCore` (``clock_for``), so
        every cohort timeline is registered with one event heap, the
        fleet-path clock rule the time lint enforces.
        """
        import dataclasses

        from repro.simcore.eventcore import EventCore
        from repro.simcore.guest import Guest

        core = EventCore()
        representatives: Dict[str, GuestManifestEntry] = {}
        entries: List[GuestManifestEntry] = []
        for app, spec in zip(drawn, specs):
            representative = representatives.get(app.name)
            if representative is None:
                guest = Guest(
                    spec,
                    clock=core.clock_for(spec.name),
                    unikernel=orchestrator.unikernel_for(app),
                )
                representative = cls._run_guest(
                    guest, app, requests_per_guest
                )
                representatives[app.name] = representative
                entries.append(representative)
            else:
                entries.append(
                    dataclasses.replace(representative, guest=spec.name)
                )
        return entries


#: Which serving profile each registry app exercises in a fleet run.
#: Apps outside this map (databases modelled elsewhere, language runtimes,
#: hello-world) boot but serve no requests.
_PROFILE_BY_APP = {
    "redis": ("repro.workloads.redis", "REDIS_GET"),
    "memcached": ("repro.workloads.memcached", "MEMCACHED_GET"),
    "nginx": ("repro.workloads.nginx", "NGINX_CONN"),
    "httpd": ("repro.workloads.nginx", "NGINX_CONN"),
    "node": ("repro.workloads.nginx", "NGINX_SESS"),
    "traefik": ("repro.workloads.nginx", "NGINX_CONN"),
    "haproxy": ("repro.workloads.nginx", "NGINX_CONN"),
    "wordpress": ("repro.workloads.nginx", "NGINX_SESS"),
    "php": ("repro.workloads.nginx", "NGINX_SESS"),
}


def _workload_profile(app_name: str):
    entry = _PROFILE_BY_APP.get(app_name)
    if entry is None:
        return None
    module_name, attribute = entry
    module = __import__(module_name, fromlist=[attribute])
    return getattr(module, attribute)


def serving_profile(app_name: str):
    """The workload :class:`RequestProfile` *app_name* serves, or None.

    The public surface of the curated profile map: the traffic layer
    (``repro.traffic``) builds its app universe and per-request costs
    from this, so routing and fleet simulation agree on what each app's
    requests cost.
    """
    return _workload_profile(app_name)


@dataclass(frozen=True)
class GuestManifestEntry:
    """One fleet guest's lifecycle record."""

    guest: str
    app: str
    kernel: str
    fingerprint: str
    boot_ms: float
    uptime_ns: float
    requests: int
    rps: Optional[float]


@dataclass
class FleetSimulation:
    """The deterministic outcome of one :meth:`Fleet.simulate` run."""

    policy: KernelPolicy
    seed: int
    count: int
    entries: List[GuestManifestEntry] = field(default_factory=list)
    #: Distinct kernel configurations the orchestrator materialized
    #: (KernelOrchestrator.build_count; equals distinct_kernels when the
    #: whole fleet was built through the orchestrator's memo).
    build_count: int = 0

    @property
    def distinct_kernels(self) -> int:
        return len({entry.fingerprint for entry in self.entries})

    @property
    def total_requests(self) -> int:
        return sum(entry.requests for entry in self.entries)

    def manifest(self) -> Dict[str, object]:
        """The canonical JSON-able manifest (digest input)."""
        return {
            "policy": self.policy.value,
            "seed": self.seed,
            "count": self.count,
            "distinct_kernels": self.distinct_kernels,
            "build_count": self.build_count,
            "guests": [
                {
                    "guest": entry.guest,
                    "app": entry.app,
                    "kernel": entry.kernel,
                    "fingerprint": entry.fingerprint,
                    "boot_ms": entry.boot_ms,
                    "uptime_ns": entry.uptime_ns,
                    "requests": entry.requests,
                    "rps": entry.rps,
                }
                for entry in self.entries
            ],
        }

    @property
    def manifest_digest(self) -> str:
        """SHA-256 over the canonical manifest encoding."""
        encoded = json.dumps(
            self.manifest(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass
class KernelOrchestrator:
    """Builds and caches kernels for applications under a policy.

    Kernel images come from the process-wide content-addressed
    :data:`~repro.core.buildcache.BUILD_CACHE` (via ``build_variant``), so
    two apps that resolve to the identical specialized configuration share
    one kernel; the orchestrator keeps only a per-app unikernel memo (the
    rootfs really is per-app) and counts the *distinct kernel
    configurations* it has materialized in ``build_count``.
    """

    policy: KernelPolicy = KernelPolicy.GENERAL
    kml: bool = True
    _unikernels: Dict[str, LupineUnikernel] = field(default_factory=dict)
    _kernel_fingerprints: Set[str] = field(default_factory=set)
    build_count: int = 0

    def variant_for(self, app: Application) -> Variant:
        """Which kernel variant *app* gets under this policy.

        The public policy surface: fleet code (``Fleet.simulate``) and
        callers assembling :class:`~repro.simcore.guest.GuestSpec`\\ s use
        this rather than reaching into policy internals.
        """
        if self.policy is KernelPolicy.PER_APP:
            return Variant.LUPINE if self.kml else Variant.LUPINE_NOKML
        return (Variant.LUPINE_GENERAL if self.kml
                else Variant.LUPINE_GENERAL_NOKML)

    def _cache_key(self, app: Application) -> str:
        """The kernel cache key for *app*: its resolved config fingerprint."""
        return variant_fingerprint(self.variant_for(app), app)

    def unikernel_for(self, app: Application) -> LupineUnikernel:
        """Get (building if necessary) the unikernel for *app*."""
        if app.name in self._unikernels:
            return self._unikernels[app.name]
        fingerprint = self._cache_key(app)
        builder = LupineBuilder(variant=self.variant_for(app))
        unikernel = builder.build_for_app(app)
        self._unikernels[app.name] = unikernel
        if fingerprint not in self._kernel_fingerprints:
            self._kernel_fingerprints.add(fingerprint)
            self.build_count += 1
        return unikernel
