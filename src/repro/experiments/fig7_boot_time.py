"""Figure 7: boot time for hello world.

As in the paper, the Lupine bars are ``-nokml`` (CONFIG_PARAVIRT conflicts
with KML and dominates boot; Section 4.3); ``lupine-kml-noparavirt`` is the
71 ms data point the text reports for completeness.

Each Linux bar boots one :class:`~repro.simcore.guest.Guest` on its own
virtual clock; the unikernel comparators keep their own boot models.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.variants import Variant
from repro.metrics.reporting import Figure
from repro.simcore import microvm_guest, variant_guest
from repro.unikernels import HermiTux, OSv, Rumprun


def _boot_ms(variant: Optional[Variant]) -> float:
    guest = microvm_guest() if variant is None else variant_guest(variant)
    return guest.boot().total_ms


def run() -> Dict[str, float]:
    results = {
        "microvm": _boot_ms(None),
        "lupine-nokml": _boot_ms(Variant.LUPINE_NOKML),
        "lupine-nokml-general": _boot_ms(Variant.LUPINE_GENERAL_NOKML),
        "lupine-nokml-tiny": _boot_ms(Variant.LUPINE_NOKML_TINY),
        "lupine-kml-noparavirt": _boot_ms(Variant.LUPINE),
        "hermitux": HermiTux().boot_report().total_ms,
        "osv-rofs": OSv("rofs").boot_report().total_ms,
        "osv-zfs": OSv("zfs").boot_report().total_ms,
        "rump": Rumprun().boot_report().total_ms,
    }
    return results


def figure(results: Dict[str, float]) -> Figure:
    output = Figure(
        title="Figure 7: boot time for hello world",
        x_label="system",
        y_label="milliseconds",
    )
    output.add_series("boot time", list(results.items()))
    return output
