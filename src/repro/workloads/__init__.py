"""Benchmark clients and workload generators.

- :mod:`repro.workloads.server` -- the request-cost composition for network
  servers (redis-benchmark and ab drive these, Table 4).
- :mod:`repro.workloads.redis` / :mod:`repro.workloads.nginx` -- the two
  macro-benchmarks of Table 4.
- :mod:`repro.workloads.perf_messaging` -- perf's sched messaging benchmark
  (Figure 12: threads vs processes).
- :mod:`repro.workloads.smp_stress` -- the sem_posix / futex / make -j
  worst-case SMP experiments of Section 5.
- :mod:`repro.workloads.control_procs` -- background control processes
  (Figure 11).
"""
