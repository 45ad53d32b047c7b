"""Kconfig substrate: the Linux kernel configuration system, in Python.

This subpackage models the parts of Kconfig the paper relies on:

- :mod:`repro.kconfig.expr` -- the tristate expression language used by
  ``depends on``, ``default`` and friends, with an expression compiler for
  hot evaluation paths.
- :mod:`repro.kconfig.model` -- configuration options and the option tree.
- :mod:`repro.kconfig.parser` -- ``.config`` fragment rendering and parsing.
- :mod:`repro.kconfig.resolver` -- ``olddefconfig``-style resolution of a
  requested option set into a complete, dependency-consistent configuration;
  incremental (worklist) by default, with the full-sweep oracle behind
  ``strategy="sweep"`` and warm-start derivation via ``resolve_from``.
- :mod:`repro.kconfig.index` -- the per-tree resolution index (reverse
  dependencies + compiled expressions) backing the worklist engine.
- :mod:`repro.kconfig.rescache` -- the process-wide resolution cache.
- :mod:`repro.kconfig.database` -- a generated model of the Linux 4.0 option
  database (15,953 options, distributed across source directories as in
  Figure 3 of the paper).
- :mod:`repro.kconfig.configs` -- named configurations: ``defconfig``,
  ``tinyconfig``, Firecracker's ``microvm`` and the paper's ``lupine-base``.
"""
