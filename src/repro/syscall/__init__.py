"""System-call substrate.

Models the pieces of the Linux syscall machinery the paper measures:

- :mod:`repro.syscall.table` -- the syscall table, including exactly which
  Kconfig options gate which syscalls (paper Table 1).
- :mod:`repro.syscall.cpu` -- the CPU cost model: privilege-transition
  costs for ``syscall``/``int 0x80``/KML ``call`` entry, KPTI flushes,
  per-syscall mitigation costs.
- :mod:`repro.syscall.dispatch` -- the dispatch engine: resolves a syscall
  against a kernel configuration and charges simulated time.
- :mod:`repro.syscall.lmbench` -- lmbench-style micro-benchmarks (null/read/
  write latency, context switch, select, etc.) used for Figures 9-11 and
  Table 5.
"""
