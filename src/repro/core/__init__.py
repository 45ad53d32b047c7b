"""The paper's contribution: Lupine Linux.

- :mod:`repro.core.manifest` -- application manifests and their generation
  (the paper assumes a manifest exists; we also implement the
  dynamic-analysis generator it leaves to future work).
- :mod:`repro.core.specialization` -- Kconfig specialization: lupine-base,
  per-application configs, and lupine-general (Section 3.1).
- :mod:`repro.core.classification` -- the Figure 4 option taxonomy.
- :mod:`repro.core.variants` -- the evaluated kernel variants: lupine,
  -nokml, -tiny, -general and combinations (Section 4).
- :mod:`repro.core.lupine` -- the build pipeline of Figure 2: container
  image + manifest -> specialized kernel + ext2 rootfs + startup script,
  and the booted guest with graceful degradation (Section 5).
"""
