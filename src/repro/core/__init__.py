"""The paper's contribution: Lupine Linux.

- :mod:`repro.core.manifest` -- application manifests (Figure 2's input),
  generated from the registry's curated app models.
- :mod:`repro.core.tracing` -- the dynamic-analysis route the paper leaves
  to future work: an app run recorded into a ``UsageTrace`` on the fully
  provisioned microVM kernel.
- :mod:`repro.core.specialization` -- Kconfig specialization: lupine-base,
  per-application configs, and lupine-general (Section 3.1).
- :mod:`repro.core.classification` -- the Figure 4 option taxonomy.
- :mod:`repro.core.variants` -- the evaluated kernel variants: lupine,
  -nokml, -tiny, -general and combinations (Section 4).
- :mod:`repro.core.lupine` -- the build pipeline of Figure 2: container
  image + manifest -> specialized kernel + ext2 rootfs + startup script,
  booted as a full-image :class:`~repro.simcore.guest.Guest` with
  graceful degradation (Section 5).
- :mod:`repro.core.orchestrator` -- per-app vs general kernel policies
  and the seeded fleet simulation (``Fleet.simulate``).
"""
