"""Figure 8: memory footprint (hello / nginx / redis).

The footprint is the minimum memory with which the guest still runs,
found by the decreasing-memory search of Section 4.4.  HermiTux cannot run
nginx, so that bar is absent (None).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.apps.registry import get_app
from repro.core.lupine import LupineBuilder
from repro.core.variants import Variant, build_microvm
from repro.metrics.reporting import Figure
from repro.mm.footprint import linux_min_memory_mb
from repro.unikernels import AppNotSupported, HermiTux, OSv, Rumprun

APPS = ("hello-world", "nginx", "redis")


def run() -> Dict[str, Dict[str, Optional[int]]]:
    """system -> app -> min memory MB (None where the app cannot run)."""
    results: Dict[str, Dict[str, Optional[int]]] = {}
    microvm = build_microvm()
    results["microvm"] = {
        name: linux_min_memory_mb(microvm.image, get_app(name))
        for name in APPS
    }
    for label, variant in (("lupine", Variant.LUPINE),
                           ("lupine-general", Variant.LUPINE_GENERAL)):
        row: Dict[str, Optional[int]] = {}
        for name in APPS:
            unikernel = LupineBuilder(variant=variant).build_for_app(
                get_app(name)
            )
            row[name] = unikernel.min_memory_mb()
        results[label] = row
    for unikernel in (HermiTux(), OSv(), Rumprun()):
        row = {}
        for name in APPS:
            try:
                row[name] = unikernel.min_memory_mb(get_app(name))
            except AppNotSupported:
                row[name] = None
        results[unikernel.name.replace("-rofs", "")] = row
    return results


def figure(results: Dict[str, Dict[str, Optional[int]]]) -> Figure:
    output = Figure(
        title="Figure 8: memory footprint",
        x_label="system",
        y_label="MB",
    )
    for app_name in APPS:
        output.add_series(
            app_name,
            [(system, row.get(app_name)) for system, row in results.items()],
        )
    return output
