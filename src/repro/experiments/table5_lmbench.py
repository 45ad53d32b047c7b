"""Table 5 (Appendix A): full lmbench, microVM vs lupine-general.

Each column is one :class:`~repro.simcore.guest.Guest`; the suite runs
against its engine and network path.
"""

from __future__ import annotations

from typing import Dict

from repro.core.variants import Variant
from repro.metrics.reporting import Table
from repro.simcore import microvm_guest, variant_guest
from repro.syscall.lmbench import LmbenchReport, run_suite


def run() -> Dict[str, LmbenchReport]:
    microvm = microvm_guest()
    general = variant_guest(Variant.LUPINE_GENERAL)
    return {
        "microvm": run_suite(
            microvm.engine, "microvm",
            net_stack_ns=microvm.netpath.packet_ns(),
        ),
        "lupine-general": run_suite(
            general.engine, "lupine-general",
            net_stack_ns=general.netpath.packet_ns(),
        ),
    }


def table(reports: Dict[str, LmbenchReport]) -> Table:
    microvm, general = reports["microvm"], reports["lupine-general"]
    output = Table(
        title="Table 5: lmbench, microVM vs lupine-general",
        headers=["Op", "MicroVM", "Lupine-general", "unit"],
    )
    for name in microvm.latencies_us:
        output.add_row(
            name, microvm.latencies_us[name], general.latencies_us[name],
            "us",
        )
    for name in microvm.bandwidths_mb_s:
        output.add_row(
            name, microvm.bandwidths_mb_s[name],
            general.bandwidths_mb_s[name], "MB/s",
        )
    return output
