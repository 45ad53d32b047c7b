"""Figure 9: system call latency via lmbench (null/read/write).

Every measurement runs on a fresh :class:`~repro.simcore.guest.Guest`
(its engine bound to the guest's virtual clock), matching lmbench's
practice of a clean process per timing run.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.variants import Variant
from repro.metrics.reporting import Figure
from repro.simcore import microvm_guest, variant_guest
from repro.syscall.lmbench import (
    null_latency_us,
    read_latency_us,
    write_latency_us,
)
from repro.unikernels import HermiTux, OSv, Rumprun

TESTS = ("null", "read", "write")


def _linux_row(variant: Optional[Variant]) -> Dict[str, float]:
    measurements = {}
    for test, runner in (("null", null_latency_us), ("read", read_latency_us),
                         ("write", write_latency_us)):
        guest = microvm_guest() if variant is None else variant_guest(variant)
        measurements[test] = runner(guest.engine)
    return measurements


def run() -> Dict[str, Dict[str, float]]:
    results = {
        "microvm": _linux_row(None),
        "lupine-nokml": _linux_row(Variant.LUPINE_NOKML),
        "lupine": _linux_row(Variant.LUPINE),
        "lupine-general": _linux_row(Variant.LUPINE_GENERAL),
    }
    for unikernel in (HermiTux(), OSv(), Rumprun()):
        results[unikernel.name.replace("-rofs", "")] = {
            test: unikernel.lmbench_us(test) for test in TESTS
        }
    return results


def specialization_improvement(results: Dict[str, Dict[str, float]]) -> float:
    """Best-case latency improvement of lupine-nokml over microVM (write),
    from a :func:`run` result."""
    return 1.0 - results["lupine-nokml"]["write"] / results["microvm"]["write"]


def kml_improvement(results: Dict[str, Dict[str, float]]) -> float:
    """KML improvement over lupine-nokml on the null test, from a
    :func:`run` result."""
    return 1.0 - results["lupine"]["null"] / results["lupine-nokml"]["null"]


def figure(results: Dict[str, Dict[str, float]]) -> Figure:
    output = Figure(
        title="Figure 9: system call latency via lmbench",
        x_label="system",
        y_label="microseconds",
    )
    for test in TESTS:
        output.add_series(
            test, [(system, row[test]) for system, row in results.items()]
        )
    return output
