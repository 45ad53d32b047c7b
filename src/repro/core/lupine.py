"""The Lupine build pipeline (Figure 2) and the booted guest.

``LupineBuilder`` turns a container image + application manifest into a
Lupine unikernel: a specialized (optionally KML) kernel image plus an ext2
root filesystem containing the app, a KML-enabled musl libc and a generated
startup script.  ``LupineGuest`` is the running instance: it boots on a
standard monitor, execs the startup script, and -- because it is Linux --
*gracefully degrades* instead of crashing when the application steps outside
the unikernel envelope (fork, multiple processes; Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.apps.app import Application
from repro.boot.bootsim import BootReport, BootSimulator
from repro.boot.phases import RootfsKind
from repro.core.manifest import ApplicationManifest, generate_manifest
from repro.core.variants import Variant, VariantBuild, build_variant
from repro.kml.libc import MuslLibc
from repro.mm.footprint import FootprintModel, measure_min_memory_mb
from repro.rootfs.container import ContainerImage, FileEntry, container_for_app
from repro.rootfs.ext2 import Ext2Image, build_ext2
from repro.rootfs.init import INIT_SCRIPT_PATH, generate_init_script
from repro.sched.scheduler import Scheduler
from repro.sched.smp import SmpModel
from repro.sched.task import Task
from repro.syscall.dispatch import SyscallEngine
from repro.vmm.monitor import Monitor, firecracker


@dataclass(frozen=True)
class LupineUnikernel:
    """A built Lupine unikernel: kernel image + rootfs (Figure 2 output)."""

    app: Optional[Application]
    manifest: Optional[ApplicationManifest]
    build: VariantBuild
    rootfs: Ext2Image
    init_script: str
    libc: MuslLibc

    @property
    def variant(self) -> Variant:
        return self.build.variant

    @property
    def kernel_image_mb(self) -> float:
        return self.build.image.size_mb

    @property
    def rootfs_size_mb(self) -> float:
        return self.rootfs.size_kb / 1024.0

    def boot(self, monitor: Optional[Monitor] = None) -> "LupineGuest":
        """Boot on *monitor* (default Firecracker), returning the guest."""
        monitor = monitor or firecracker()
        monitor.check_linux_guest(self.build.image)
        simulator = BootSimulator(monitor_setup_ms=monitor.setup_ms)
        report = simulator.boot(
            self.build.image, rootfs=RootfsKind.EXT2,
            system=self.build.config.name,
        )
        return LupineGuest(unikernel=self, monitor=monitor, boot_report=report)

    def min_memory_mb(self) -> int:
        """Figure 8's metric for this unikernel."""
        app = self.app
        model = FootprintModel(
            image=self.build.image,
            app_resident_kb=float(app.resident_kb if app else 16),
            app_mapped_kb=float(app.binary_size_kb if app else 64),
        )
        return measure_min_memory_mb(model.try_boot)


@dataclass
class LupineGuest:
    """A booted Lupine guest with a live scheduler and syscall engine."""

    unikernel: LupineUnikernel
    monitor: Monitor
    boot_report: BootReport
    engine: SyscallEngine = field(init=False)
    scheduler: Scheduler = field(init=False)
    console: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.engine = self.unikernel.build.syscall_engine()
        smp_enabled = "SMP" in self.unikernel.build.config
        self.scheduler = Scheduler(
            cost_model=self.engine.cost_model,
            smp=SmpModel(smp_enabled=smp_enabled, cpus=1),
        )
        self._run_init()

    def _run_init(self) -> None:
        """Execute the generated startup script as pid 1."""
        if not self.unikernel.rootfs.exists(INIT_SCRIPT_PATH):
            raise RuntimeError("rootfs has no startup script")
        app = self.unikernel.app
        kernel_mode = self.unikernel.build.kml
        name = app.name if app else "init"
        resident = app.resident_kb if app else 16
        self.app_task = self.scheduler.spawn(
            name, working_set_kb=min(resident, 4096), kernel_mode=kernel_mode
        )
        self.engine.invoke("execve")
        self.console.append(f"lupine: starting {name}")
        if app and app.needs_procfs and "PROC_FS" in self.unikernel.build.config:
            self.engine.invoke("mount")
        self.console.append(f"{name}: ready")

    # -- unikernel-envelope checks / graceful degradation ------------------

    def syscall(self, name: str, work_ns: float = 0.0):
        """Issue a syscall from the app; ENOSYS surfaces as an exception."""
        return self.engine.invoke(name, work_ns=work_ns)

    def fork_app(self) -> Task:
        """fork() from the application.

        Where unikernels crash or continue in a corrupted state, Lupine
        simply runs the child (Section 5), provided the kernel was built
        with fork support (always true: fork is not config-gated).
        """
        self.engine.invoke("fork")
        return self.scheduler.fork(self.app_task)

    def spawn_control_processes(self, count: int) -> List[Task]:
        """Launch *count* sleeping 'control' processes (Figure 11 setup)."""
        control = []
        for index in range(count):
            task = self.scheduler.spawn(f"sleep-{index}", working_set_kb=4)
            self.scheduler.sleep(task)
            control.append(task)
        return control

    @property
    def ran_successfully(self) -> bool:
        """The paper's simple success criterion: the ready line appeared."""
        return any(line.endswith(": ready") for line in self.console)

    def dmesg(self) -> str:
        """The kernel console output of this guest's boot."""
        from repro.boot.console import dmesg as render_dmesg

        return render_dmesg(self.unikernel.build.image, self.boot_report)

    def tcp_stack(self, backlog: int = 128):
        """A TCP endpoint matching this guest's kernel configuration."""
        from repro.netstack.tcp import stack_for_config

        return stack_for_config(
            self.unikernel.build.config.enabled, backlog=backlog
        )


@dataclass
class LupineBuilder:
    """Builds Lupine unikernels from container images (Figure 2).

    ``slim=True`` additionally runs the DockerSlim-style minimization over
    the container before building the rootfs (paper footnote 3).
    """

    variant: Variant = Variant.LUPINE
    slim: bool = False

    def build_for_app(
        self,
        app: Application,
        container: Optional[ContainerImage] = None,
        manifest: Optional[ApplicationManifest] = None,
    ) -> LupineUnikernel:
        """The full pipeline for one application."""
        manifest = manifest or generate_manifest(app)
        libc = MuslLibc(kml_patched=self.variant.kml)
        container = container or container_for_app(app, libc.variant)
        if self.slim:
            from repro.rootfs.slim import slim_container

            container, _ = slim_container(container, manifest)
        build = build_variant(self.variant, manifest)
        init_script = generate_init_script(
            entrypoint=container.entrypoint or tuple(app.entrypoint),
            env=container.env,
            enabled_options=build.config.enabled,
            needs_network=app.needs_network,
            ulimit_nofile=4096 if app.needs_network else 0,
        )
        files = list(container.flatten().values())
        files.append(
            FileEntry(
                INIT_SCRIPT_PATH,
                size_kb=max(1.0, len(init_script) / 1024.0),
                executable=True,
            )
        )
        rootfs = build_ext2(files, label=f"lupine-{app.name}")
        return LupineUnikernel(
            app=app,
            manifest=manifest,
            build=build,
            rootfs=rootfs,
            init_script=init_script,
            libc=libc,
        )

    def build_bare(self) -> LupineUnikernel:
        """A bare hello-world-capable unikernel (for Figures 6/7)."""
        from repro.apps.registry import get_app

        return self.build_for_app(get_app("hello-world"))
