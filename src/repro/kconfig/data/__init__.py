"""Curated option data for the Linux 4.0 database model.

The paper's accounting (Figures 3 and 4) requires exact counts:

- 15,953 total configuration options in Linux 4.0;
- 833 options selected by Firecracker's microVM configuration;
- 550 of those removed to form ``lupine-base`` (283 options), split into
  application-specific (311), multiple-processes (89) and hardware
  management (150) categories.

These modules define every option in the microVM configuration by name,
grouped the way the paper groups them, together with per-group cost-model
parameters (object size, initcall cost, static memory).  The remaining
~15,120 options -- which never appear in any configuration the paper builds
-- are synthesized deterministically by :mod:`repro.kconfig.database`.
"""
