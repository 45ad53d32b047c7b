"""The Lupine build pipeline (Figure 2).

``LupineBuilder`` turns a container image + application manifest into a
Lupine unikernel: a specialized (optionally KML) kernel image plus an ext2
root filesystem containing the app, a KML-enabled musl libc and a generated
startup script.  :meth:`LupineUnikernel.boot` runs it as a full-image
:class:`~repro.simcore.guest.Guest`: it boots on a standard monitor, execs
the startup script, and -- because it is Linux -- *gracefully degrades*
instead of crashing when the application steps outside the unikernel
envelope (fork, multiple processes; Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.app import Application
from repro.core.manifest import ApplicationManifest, generate_manifest
from repro.core.variants import Variant, VariantBuild, build_variant
from repro.kml.libc import MuslLibc
from repro.mm.footprint import linux_min_memory_mb
from repro.rootfs.container import FileEntry, container_for_app
from repro.rootfs.ext2 import Ext2Image, build_ext2
from repro.rootfs.init import INIT_SCRIPT_PATH, generate_init_script
from repro.simcore.guest import Guest, GuestSpec
from repro.vmm.monitor import Monitor


@dataclass(frozen=True)
class LupineUnikernel:
    """A built Lupine unikernel: kernel image + rootfs (Figure 2 output)."""

    app: Application
    manifest: ApplicationManifest
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

    def boot(self, monitor: Optional[Monitor] = None) -> Guest:
        """Boot on *monitor* (default Firecracker) and run the startup
        script, returning the full-image guest."""
        guest = Guest(GuestSpec(
            name=f"{self.variant.value}[{self.app.name}]",
            variant=self.variant, app=self.app.name, full_image=True,
        ), unikernel=self).build()
        guest.boot(monitor)
        guest.run_init()
        return guest

    def min_memory_mb(self) -> int:
        """Figure 8's metric for this unikernel."""
        return linux_min_memory_mb(self.build.image, self.app)


@dataclass
class LupineBuilder:
    """Builds Lupine unikernels from container images (Figure 2).

    ``slim=True`` additionally runs the DockerSlim-style minimization over
    the container before building the rootfs (paper footnote 3).
    """

    variant: Variant = Variant.LUPINE
    slim: bool = False

    def build_for_app(self, app: Application) -> LupineUnikernel:
        """The full pipeline for one application."""
        manifest = generate_manifest(app)
        libc = MuslLibc(kml_patched=self.variant.kml)
        container = container_for_app(app, libc.variant)
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
