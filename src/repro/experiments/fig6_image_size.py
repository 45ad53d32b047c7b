"""Figure 6: kernel image size for hello world."""

from __future__ import annotations

from typing import Dict

from repro.apps.registry import get_app
from repro.core.variants import Variant, build_microvm, build_variant
from repro.metrics.reporting import Figure
from repro.unikernels import HermiTux, OSv, Rumprun


def run() -> Dict[str, float]:
    """System -> compressed kernel image size in MB (hello world config)."""
    hello = get_app("hello-world")
    results = {
        "microvm": build_microvm().image.size_mb,
        "lupine": build_variant(Variant.LUPINE).image.size_mb,
        "lupine-tiny": build_variant(Variant.LUPINE_TINY).image.size_mb,
        "lupine-general": build_variant(Variant.LUPINE_GENERAL).image.size_mb,
        "hermitux": HermiTux().image_size_mb(hello),
        "osv": OSv().image_size_mb(hello),
        "rump": Rumprun().image_size_mb(hello),
    }
    return results


def app_specific_range() -> Dict[str, float]:
    """Per-app Lupine image sizes as a fraction of microVM (27-33%)."""
    from repro.apps.registry import top20_in_popularity_order

    microvm_mb = build_microvm().image.size_mb
    fractions = {}
    for app in top20_in_popularity_order():
        image = build_variant(Variant.LUPINE_NOKML, app).image
        fractions[app.name] = image.size_mb / microvm_mb
    return fractions


def figure(results: Dict[str, float]) -> Figure:
    output = Figure(
        title="Figure 6: image size for hello world",
        x_label="system",
        y_label="MB",
    )
    output.add_series("image size", list(results.items()))
    return output
