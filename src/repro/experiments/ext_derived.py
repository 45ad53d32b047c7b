"""Extension experiment: trace-derived vs curated vs general configs.

The Loupe loop closed (see docs/SPECIALIZATION.md): record each app's
usage under a recorder, derive its config from the observation, and
compare the result against the hand-curated per-app config and the
lupine-general union on the paper's own axes -- image size, boot time,
serving throughput -- plus the syscall-surface delta.

The apps are chosen to span the interesting cases: nginx (the largest
curated option set), redis (the paper's running example), and php (the
app whose curated manifest lists *no* options even though its request
loop epolls -- the derived config enables ``EPOLL`` and serves, while
the curated config ENOSYSes on the first request).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.apps.registry import get_app
from repro.core.optionset import option_surface
from repro.core.orchestrator import serving_profile
from repro.core.variants import Variant, build_variant
from repro.harness.codec import register_result_dataclass
from repro.metrics.reporting import Table
from repro.simcore import variant_guest
from repro.simcore.guest import GuestLifecycleError
from repro.syscall.dispatch import SyscallNotImplemented

#: Apps compared (see module docstring for why these three).
APPS = ("nginx", "redis", "php")

#: Config families compared, all -nokml so boot times are comparable
#: (CONFIG_PARAVIRT conflicts with KML and dominates boot; Section 4.3).
FAMILIES = (
    ("curated", Variant.LUPINE_NOKML),
    ("derived", Variant.LUPINE_DERIVED_NOKML),
    ("general", Variant.LUPINE_GENERAL_NOKML),
)

#: Requests served per throughput measurement.
REQUESTS = 2000


@register_result_dataclass
@dataclass(frozen=True)
class DerivedComparison:
    """One (app, family) cell of the comparison."""

    app: str
    family: str
    image_mb: float
    boot_ms: float
    throughput_krps: float  # 0.0 => the config cannot serve (ENOSYS)
    option_count: int
    reachable_syscalls: int


def _measure(app_name: str, family: str, variant: Variant) -> DerivedComparison:
    build = build_variant(
        variant, None if variant.general else get_app(app_name)
    )
    surface = option_surface(build.config)
    guest = variant_guest(variant, None if variant.general else app_name,
                          name=f"ext-derived:{variant.value}[{app_name}]")
    boot_ms = guest.boot().total_ms
    profile = serving_profile(app_name)
    start_ns = guest.engine.clock_ns
    try:
        guest.serve(profile, REQUESTS)
        elapsed_ns = guest.engine.clock_ns - start_ns
        throughput = REQUESTS / (elapsed_ns / 1e9) / 1000.0
    except (SyscallNotImplemented, GuestLifecycleError):
        # The config cannot serve this workload at all: a gated-out
        # syscall (ENOSYS) or no compiled-in network stack.
        throughput = 0.0
    return DerivedComparison(
        app=app_name,
        family=family,
        image_mb=build.image.size_mb,
        boot_ms=boot_ms,
        throughput_krps=throughput,
        option_count=surface.option_count,
        reachable_syscalls=surface.reachable_syscalls,
    )


def run() -> Dict[str, Dict[str, DerivedComparison]]:
    """app -> family -> comparison cell."""
    return {
        app: {
            family: _measure(app, family, variant)
            for family, variant in FAMILIES
        }
        for app in APPS
    }


def table(results: Dict[str, Dict[str, DerivedComparison]]) -> Table:
    output = Table(
        title="Extension: trace-derived vs curated vs general configs",
        headers=["app", "family", "image MB", "boot ms", "kreq/s",
                 "options", "reachable syscalls"],
    )
    for app in APPS:
        for family, _ in FAMILIES:
            cell = results[app][family]
            output.add_row(
                app, family, cell.image_mb, cell.boot_ms,
                cell.throughput_krps, cell.option_count,
                cell.reachable_syscalls,
            )
    return output
