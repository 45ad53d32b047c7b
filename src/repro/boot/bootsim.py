"""The boot simulator.

Runs a :class:`~repro.kbuild.image.KernelImage` through the boot phases
under a given monitor and root filesystem, producing a per-phase breakdown
and the total boot time the paper's Figure 7 reports (measured, as in the
paper, from monitor start to the guest's "boot complete" I/O port write).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.boot.phases import (
    BootPhase,
    DECOMPRESS_KB_PER_MS,
    EARLY_SETUP_MS,
    INIT_EXEC_MS,
    INITCALL_ASYNC_FACTOR,
    INITCALL_DISPATCH_US,
    LOAD_KB_PER_MS,
    PARAVIRT_CLOCK_CALIBRATION_MS,
    RootfsKind,
    TSC_CALIBRATION_MS,
)
from repro.faults import fault_site
from repro.kbuild.image import KernelImage
from repro.observe import METRICS, span
from repro.simcore.context import current_clock


@dataclass
class BootReport:
    """Outcome of one simulated boot."""

    system: str
    phases_ms: Dict[BootPhase, float] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return sum(self.phases_ms.values())

    def phase_ms(self, phase: BootPhase) -> float:
        return self.phases_ms.get(phase, 0.0)

    def breakdown(self) -> str:
        lines = [f"boot {self.system}: {self.total_ms:.1f} ms"]
        for phase in BootPhase:
            if phase in self.phases_ms:
                lines.append(f"  {phase.value:<18} {self.phases_ms[phase]:7.2f} ms")
        return "\n".join(lines)


@dataclass
class BootSimulator:
    """Simulates guest boots for Linux kernel images.

    ``monitor_setup_ms`` comes from the VMM (:mod:`repro.vmm`); unikernel
    comparators provide their own boot models (:mod:`repro.unikernels`).
    """

    monitor_setup_ms: float

    def boot(
        self,
        image: KernelImage,
        rootfs: RootfsKind = RootfsKind.EXT2,
        system: Optional[str] = None,
    ) -> BootReport:
        report = BootReport(system=system or image.name)
        phases = report.phases_ms
        with span("boot.boot", category="boot",
                  system=report.system) as record:
            # Fault site: a "hang" advances the simulated clock past any
            # deadline and raises FaultHang (a guest that never reaches
            # the boot-complete I/O port write); a "raise" is a crash.
            with fault_site("boot.boot"):
                pass
            phases[BootPhase.MONITOR_SETUP] = self.monitor_setup_ms
            phases[BootPhase.KERNEL_LOAD] = (
                image.compressed_kb / LOAD_KB_PER_MS
            )
            phases[BootPhase.DECOMPRESS] = (
                image.uncompressed_kb / DECOMPRESS_KB_PER_MS
            )
            phases[BootPhase.EARLY_SETUP] = EARLY_SETUP_MS
            phases[BootPhase.CLOCK_CALIBRATION] = (
                PARAVIRT_CLOCK_CALIBRATION_MS
                if image.has_option("PARAVIRT")
                else TSC_CALIBRATION_MS
            )
            phases[BootPhase.INITCALLS] = self._initcalls_ms(image)
            phases[BootPhase.ROOTFS_MOUNT] = rootfs.mount_ms
            phases[BootPhase.INIT_EXEC] = INIT_EXEC_MS
            # One child span per phase, advancing the active virtual
            # clock by the modelled duration: booted under a Guest scope
            # this is the guest's own timeline (and the trace carries the
            # boot timeline Figure 7 is made of, not just host overhead).
            for phase in BootPhase:
                if phase not in phases:
                    continue
                with span(f"boot.{phase.value}", category="boot"):
                    current_clock().advance_ms(phases[phase])
            record.set_attr("total_sim_ms", report.total_ms)
        METRICS.counter("boot.boots").inc()
        METRICS.histogram(
            "boot.total_ms",
            (5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0),
        ).observe(report.total_ms)
        return report

    @staticmethod
    def _initcalls_ms(image: KernelImage) -> float:
        # A pure function of the image, so the sorted fold below runs on
        # a kernel's first boot only; later boots read it off the image.
        return image.derived("boot.initcalls_ms",
                             BootSimulator._fold_initcalls_ms)

    @staticmethod
    def _fold_initcalls_ms(image: KernelImage) -> float:
        config = image.config
        # Sorted fold: ``config.enabled`` is a frozenset, so iteration
        # order -- and therefore the float sum -- would otherwise vary
        # with PYTHONHASHSEED.  Boot times feed fleet manifest digests.
        total_us = sum(
            config.tree[name].boot_cost_us for name in sorted(config.enabled)
        )
        total_us *= INITCALL_ASYNC_FACTOR
        total_us += INITCALL_DISPATCH_US * len(config.enabled)
        # -Os slows initcall code just like any other kernel code.
        total_us *= image.opt_level.speed_factor
        return total_us / 1000.0
