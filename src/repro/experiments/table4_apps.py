"""Table 4: application performance normalized to microVM.

redis-benchmark GET/SET and ab against nginx (connection- and
session-based).  OSv values for nginx are N/A (drops connections) and
HermiTux cannot run nginx (not curated) -- like the paper's empty cells.

Each Linux row drives the benchmarks against per-app
:class:`~repro.simcore.guest.Guest`\\ s: one redis guest and one nginx
guest per kernel, each serving its workloads on its own virtual clock.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.apps.registry import get_app
from repro.core.variants import Variant
from repro.metrics.reporting import Table
from repro.simcore import Guest, microvm_guest, variant_guest
from repro.unikernels import HermiTux, OSv, Rumprun
from repro.workloads.nginx import ApacheBench, NGINX_CONN, NGINX_SESS
from repro.workloads.redis import REDIS_GET, REDIS_SET, RedisBenchmark

COLUMNS = ("redis-get", "redis-set", "nginx-conn", "nginx-sess")

LUPINE_VARIANTS = (
    Variant.LUPINE_GENERAL,
    Variant.LUPINE,
    Variant.LUPINE_TINY,
    Variant.LUPINE_NOKML,
    Variant.LUPINE_NOKML_TINY,
)


def _linux_rates(guest_for_app: Callable[[str], Guest]) -> Dict[str, float]:
    redis_bench, apache_bench = RedisBenchmark(), ApacheBench()
    redis_guest = guest_for_app("redis")
    nginx_guest = guest_for_app("nginx")
    return {
        "redis-get": redis_bench.get_rps(redis_guest.server_stack),
        "redis-set": redis_bench.set_rps(redis_guest.server_stack),
        "nginx-conn": apache_bench.conn_rps(nginx_guest.server_stack),
        "nginx-sess": apache_bench.sess_rps(nginx_guest.server_stack),
    }


def _unikernel_rates(unikernel) -> Dict[str, Optional[float]]:
    rates: Dict[str, Optional[float]] = {}
    profiles = {
        "redis-get": ("redis", REDIS_GET),
        "redis-set": ("redis", REDIS_SET),
        "nginx-conn": ("nginx", NGINX_CONN),
        "nginx-sess": ("nginx", NGINX_SESS),
    }
    for column, (app_name, profile) in profiles.items():
        app = get_app(app_name)
        if not unikernel.can_run(app):
            rates[column] = None
            continue
        request_ns = unikernel.request_ns(profile)
        rates[column] = None if request_ns == float("inf") else 1e9 / request_ns
    return rates


def run() -> Dict[str, Dict[str, Optional[float]]]:
    """system -> column -> throughput normalized to microVM."""
    baseline = _linux_rates(lambda _app: microvm_guest())
    results: Dict[str, Dict[str, Optional[float]]] = {
        "microVM": {column: 1.0 for column in COLUMNS}
    }
    for variant in LUPINE_VARIANTS:
        rates = _linux_rates(
            lambda app_name, v=variant: variant_guest(v, app_name)
        )
        results[variant.value] = {
            column: rates[column] / baseline[column] for column in COLUMNS
        }
    for unikernel in (HermiTux(), OSv(), Rumprun()):
        rates = _unikernel_rates(unikernel)
        results[unikernel.name.replace("-rofs", "")] = {
            column: (
                rates[column] / baseline[column]
                if rates[column] is not None
                else None
            )
            for column in COLUMNS
        }
    return results


def table(results: Dict[str, Dict[str, Optional[float]]]) -> Table:
    output = Table(
        title="Table 4: application performance normalized to microVM "
              "(higher is better)",
        headers=["Name"] + list(COLUMNS),
    )
    for system, row in results.items():
        output.add_row(system, *[row[column] for column in COLUMNS])
    return output
