"""The unified guest runtime: one lifecycle object per simulated guest.

``GuestSpec -> build -> boot -> serve -> shutdown``: a :class:`Guest`
composes the monitor, kernel image, :class:`SyscallEngine`,
:class:`NetworkPath`, scheduler, TCP stack and workload of one simulated
guest behind a single object, with every layer advancing the guest's own
:class:`~repro.simcore.clock.VirtualClock`.  It is the only booted-guest
object: :meth:`LupineUnikernel.boot <repro.core.lupine.LupineUnikernel.boot>`
returns a full-image Guest that has also run its startup script
(:meth:`Guest.run_init`).

Clock ownership rules (see ``docs/GUEST_RUNTIME.md``):

- the Guest owns the clock; engine, scheduler and TCP stack are *bound*
  to it at build time (they never keep private accumulators);
- lifecycle operations (``boot``, ``serve``) enter the guest's clock via
  :func:`~repro.simcore.context.use_clock`, so ambient advances -- boot
  phases, fault hangs -- land on this guest, not the process timeline;
- a guest used purely for steady-state measurement may ``serve`` from
  the BUILT state without booting: the paper's throughput numbers
  (Table 4) are steady-state and must not fold boot time into the
  engine's accumulator.

Experiments hand-wire nothing anymore: Figure 7 builds and boots
Guests, Table 4 serves workload profiles on them, the lmbench figures
measure their engines, and ``Fleet.simulate`` (:mod:`repro.core.orchestrator`)
drives thousands of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.boot.phases import RootfsKind
from repro.simcore.clock import VirtualClock
from repro.simcore.context import use_clock


class GuestLifecycleError(RuntimeError):
    """An operation was issued in the wrong lifecycle state."""


class GuestState(enum.Enum):
    """Where a guest is in its lifecycle."""

    CREATED = "created"
    BUILT = "built"
    BOOTED = "booted"
    SHUTDOWN = "shutdown"


@dataclass(frozen=True)
class GuestSpec:
    """The declarative recipe for one guest.

    ``variant=None`` selects the microVM baseline kernel.  ``app`` names
    a registry application specializing the config (None: the bare
    lupine-base target).  ``full_image=True`` runs the whole Figure 2
    pipeline (container -> rootfs -> unikernel) instead of a kernel-only
    build -- the fleet path; kernel-only is what the latency/throughput
    experiments measure.
    """

    name: str
    variant: Optional["Variant"] = None  # noqa: F821 -- core.variants
    app: Optional[str] = None
    full_image: bool = False
    kpti: bool = False
    rootfs: RootfsKind = RootfsKind.EXT2


class Guest:
    """One simulated guest on its own virtual timeline."""

    def __init__(self, spec: GuestSpec,
                 clock: Optional[VirtualClock] = None,
                 unikernel=None) -> None:
        self.spec = spec
        self.clock = clock if clock is not None else VirtualClock()
        self.state = GuestState.CREATED
        self.kernel = None          # VariantBuild (variant None: microVM)
        #: Prebuilt LupineUnikernel (full_image fleets route builds
        #: through KernelOrchestrator.unikernel_for, so the per-app memo
        #: and build_count stay live); built on demand otherwise.
        self.unikernel = unikernel
        self.engine = None
        self.scheduler = None
        self.netpath = None
        self.tcp = None
        self.boot_report = None
        self.requests_served = 0
        #: Set by the init step (:meth:`run_init`) only.
        self.app_task = None
        self.console: List[str] = []
        self._stack = None

    # -- lifecycle ---------------------------------------------------------

    def build(self) -> "Guest":
        """Materialize kernel + runtime components, bound to the clock."""
        from repro.core.variants import build_microvm, build_variant
        from repro.netstack.tcp import stack_for_config
        from repro.sched.scheduler import Scheduler
        from repro.sched.smp import SmpModel

        self._require(GuestState.CREATED, "build")
        if self.spec.variant is None:
            self.kernel = build_microvm()
        elif self.spec.full_image:
            if self.unikernel is None:
                from repro.core.lupine import LupineBuilder

                app = self._app()
                if app is None:
                    raise GuestLifecycleError(
                        f"guest {self.spec.name}: full_image needs an app"
                    )
                self.unikernel = LupineBuilder(
                    variant=self.spec.variant
                ).build_for_app(app)
            self.kernel = self.unikernel.build
        else:
            self.kernel = build_variant(self.spec.variant, self._app())
        self.engine = self.kernel.syscall_engine(
            kpti=self.spec.kpti, clock=self.clock
        )
        smp_enabled = "SMP" in self.kernel.config
        self.scheduler = Scheduler(
            cost_model=self.engine.cost_model,
            smp=SmpModel(smp_enabled=smp_enabled, cpus=1),
            clock=self.clock,
        )
        # Hello-world kernels (Figure 6/7's measurement target) drop
        # CONFIG_INET entirely; such guests boot but cannot serve.
        if "INET" in self.kernel.config:
            self.netpath = self.kernel.network_path()
            self.tcp = stack_for_config(
                self.kernel.config.enabled, clock=self.clock
            )
        self.state = GuestState.BUILT
        return self

    def boot(self, monitor=None, system: Optional[str] = None):
        """Boot the guest; boot phases advance *this guest's* clock.

        Returns the :class:`~repro.boot.bootsim.BootReport`.  Full-image
        guests validate monitor/driver compatibility first.
        """
        from repro.boot.bootsim import BootSimulator
        from repro.vmm.monitor import firecracker

        self._require(GuestState.BUILT, "boot")
        monitor = monitor if monitor is not None else firecracker()
        if self.spec.full_image:
            monitor.check_linux_guest(self.kernel.image)
            if system is None:
                system = self.kernel.config.name
        simulator = BootSimulator(monitor_setup_ms=monitor.setup_ms)
        with use_clock(self.clock):
            self.boot_report = simulator.boot(
                self.kernel.image, rootfs=self.spec.rootfs, system=system
            )
        self.state = GuestState.BOOTED
        return self.boot_report

    def run_init(self) -> None:
        """The init step: exec the startup script as pid 1.

        Spawns the app task (kernel-mode under KML), charges its
        ``execve`` and, when the app needs procfs and the kernel has it,
        the ``mount``, and logs the console lines whose ``ready`` line is
        the paper's success criterion.  Only
        :meth:`LupineUnikernel.boot <repro.core.lupine.LupineUnikernel.boot>`
        runs it: serving and fleet guests boot without it, so their clocks,
        call counts and digests carry no startup syscalls.
        """
        from repro.rootfs.init import INIT_SCRIPT_PATH

        self._require(GuestState.BOOTED, "run_init")
        unikernel = self.unikernel
        if unikernel is None or not unikernel.rootfs.exists(INIT_SCRIPT_PATH):
            raise RuntimeError("rootfs has no startup script")
        app = unikernel.app
        self.app_task = self.scheduler.spawn(
            app.name, working_set_kb=min(app.resident_kb, 4096),
            kernel_mode=self.kernel.kml,
        )
        self.engine.invoke("execve")
        self.console.append(f"lupine: starting {app.name}")
        if app.needs_procfs and "PROC_FS" in self.kernel.config:
            self.engine.invoke("mount")
        self.console.append(f"{app.name}: ready")

    @property
    def ran_successfully(self) -> bool:
        """The paper's simple success criterion: the ready line appeared."""
        return any(line.endswith(": ready") for line in self.console)

    def fork_app(self):
        """fork() from the application; returns the child task.

        Where unikernels crash or continue in a corrupted state, Lupine
        simply runs the child (Section 5): fork is not config-gated.
        """
        self.engine.invoke("fork")
        return self.scheduler.fork(self.app_task)

    def serve(self, profile, requests: int) -> float:
        """Serve *requests* of *profile* through the live engine; rps.

        Allowed from BUILT (steady-state measurement, boot excluded from
        the engine fold) or BOOTED (full-lifecycle guests).
        """
        if self.state not in (GuestState.BUILT, GuestState.BOOTED):
            raise GuestLifecycleError(
                f"guest {self.spec.name}: cannot serve while {self.state.value}"
            )
        with use_clock(self.clock):
            rate = self.server_stack.run(profile, requests)
        self.requests_served += requests
        return rate

    def shutdown(self) -> None:
        """Retire the guest; it accepts no further lifecycle work.

        Its clock stays where the last stage left it, so
        :attr:`uptime_ns` reads the same after shutdown as before.
        """
        if self.state is GuestState.SHUTDOWN:
            return
        self.state = GuestState.SHUTDOWN

    # -- measurement surface ----------------------------------------------

    @property
    def server_stack(self):
        """The guest's server workload stack (engine + network path)."""
        if self._stack is None:
            from repro.workloads.server import LinuxServerStack

            self._require_built("server_stack")
            if self.netpath is None:
                raise GuestLifecycleError(
                    f"guest {self.spec.name}: kernel has no network stack"
                )
            self._stack = LinuxServerStack(
                engine=self.engine, netpath=self.netpath
            )
        return self._stack

    def request_ns(self, profile) -> float:
        """Analytic per-request cost on this guest (no engine mutation)."""
        return self.server_stack.request_ns(profile)

    @property
    def uptime_ns(self) -> float:
        return self.clock.now_ns

    # -- internals ---------------------------------------------------------

    def _app(self):
        if self.spec.app is None:
            return None
        from repro.apps.registry import get_app

        return get_app(self.spec.app)

    def _require(self, state: GuestState, operation: str) -> None:
        if self.state is not state:
            raise GuestLifecycleError(
                f"guest {self.spec.name}: {operation} requires "
                f"{state.value}, currently {self.state.value}"
            )

    def _require_built(self, operation: str) -> None:
        if self.state in (GuestState.CREATED, GuestState.SHUTDOWN):
            raise GuestLifecycleError(
                f"guest {self.spec.name}: {operation} requires a built guest"
            )


# -- convenience constructors ---------------------------------------------


def microvm_guest(name: str = "microvm") -> Guest:
    """A built guest on the microVM baseline kernel."""
    return Guest(GuestSpec(name=name)).build()


def variant_guest(variant, app: Optional[str] = None,
                  name: Optional[str] = None) -> Guest:
    """A built kernel-only guest for *variant* (optionally specialized)."""
    label = name or (f"{variant.value}[{app}]" if app else variant.value)
    return Guest(GuestSpec(name=label, variant=variant, app=app)).build()


def guest_for_app(variant, app: str, name: Optional[str] = None) -> Guest:
    """A built full-image guest (Figure 2 pipeline) for *app*."""
    return Guest(GuestSpec(
        name=name or f"{variant.value}[{app}]",
        variant=variant, app=app, full_image=True,
    )).build()
