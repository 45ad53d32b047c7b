"""Application manifests.

"At its simplest, an application manifest could be a developer-supplied
kernel configuration and startup script" (Section 3).  Ours is the richer
form the paper sketches: the syscalls the application issues plus the
runtime facilities it touches (socket families, mounts, kernel crypto),
from which the kernel configuration and the startup script are both derived.

The paper leaves manifest *generation* to future work and derives
configurations manually from error messages.  :func:`generate_manifest`
builds the manifest from the application model's curated syscall and
facility lists, and :func:`derive_options` maps it to Kconfig options --
reproducing the manual derivation's outcome exactly.  The measured route
(record a run, derive from the recording) is :mod:`repro.core.tracing`
plus :mod:`repro.kconfig.derive`; both routes share one option mapping,
:func:`repro.core.optionset.implied_options`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.apps.app import Application
from repro.apps.registry import OPTION_FACILITIES
from repro.core.optionset import implied_options
from repro.syscall.table import SYSCALLS


@dataclass(frozen=True)
class ApplicationManifest:
    """What an application needs from the kernel."""

    app_name: str
    syscalls: FrozenSet[str]
    facilities: FrozenSet[str] = frozenset()
    entrypoint: Tuple[str, ...] = ()
    env: Tuple[Tuple[str, str], ...] = ()
    needs_network: bool = False

    def __post_init__(self) -> None:
        unknown = {name for name in self.syscalls if name not in SYSCALLS}
        if unknown:
            raise ValueError(f"manifest lists unknown syscalls: {sorted(unknown)}")
        bad = {f for f in self.facilities if f not in OPTION_FACILITIES.values()}
        if bad:
            raise ValueError(f"manifest lists unknown facilities: {sorted(bad)}")


def generate_manifest(app: Application) -> ApplicationManifest:
    """The manifest of a registry application.

    Copies the syscalls and facilities the application model declares
    (the curated lists behind Table 3), plus its entrypoint, environment
    and network need.
    """
    return ApplicationManifest(
        app_name=app.name,
        syscalls=app.syscalls,
        facilities=app.facilities,
        entrypoint=tuple(app.entrypoint),
        env=tuple(app.env),
        needs_network=app.needs_network,
    )


def derive_options(manifest: ApplicationManifest) -> FrozenSet[str]:
    """Kconfig options (atop lupine-base) a manifest implies.

    Delegates to the shared syscall/facility -> option mapping in
    :mod:`repro.core.optionset`, the same one trace-driven derivation
    uses.
    """
    return implied_options(manifest.syscalls, manifest.facilities)

