#!/usr/bin/env python3
"""Graceful degradation beyond the unikernel envelope (Section 5).

Unikernels crash when an application forks; Lupine keeps running.  This
example pushes one Lupine guest and the three comparator unikernels outside
the single-process, single-CPU envelope and reports what happens:

1. fork: postgres (a multi-process app) on each system,
2. background control processes: syscall latency stays flat,
3. SMP support on one CPU: bounded overhead instead of a crash.

Run: ``python examples/graceful_degradation.py``
"""

from repro.apps.registry import get_app
from repro.core.lupine import LupineBuilder
from repro.core.variants import Variant
from repro.unikernels import (
    AppNotSupported,
    HermiTux,
    OSv,
    Rumprun,
    UnikernelCrash,
)
from repro.workloads.control_procs import run_with_control_processes
from repro.workloads.smp_stress import smp_overhead


def main() -> None:
    postgres = get_app("postgres")
    redis = get_app("redis")

    print("== 1. fork() ==")
    for unikernel in (HermiTux(), OSv(), Rumprun()):
        try:
            instance = unikernel.run_app(postgres)
            instance.fork()
            outcome = "ran?!"
        except AppNotSupported as error:
            outcome = f"cannot even start: {error}"
        except UnikernelCrash as error:
            outcome = f"CRASH: {error}"
        print(f"   {unikernel.name:<10} {outcome}")

    # Lupine: postgres needs CONFIG_SYSVIPC (a 'multi-process' option the
    # unikernel domain excludes) -- re-enable it and everything works.
    lupine = LupineBuilder(variant=Variant.LUPINE).build_for_app(postgres)
    assert "SYSVIPC" in lupine.build.config
    guest = lupine.boot()
    child = guest.fork_app()
    print(f"   {'lupine':<10} fork OK -> child pid {child.pid}; "
          f"guest still running: {guest.ran_successfully}")

    print("\n== 2. background control processes (Figure 11) ==")
    build = LupineBuilder(variant=Variant.LUPINE).build_for_app(redis).build
    print("   control procs   null us")
    baseline = None
    for count in (1, 16, 256, 1024):
        result = run_with_control_processes(build.syscall_engine(), count)
        null_us = result.latencies_us["null"]
        baseline = baseline or null_us
        print(f"   {count:>13}   {null_us:.4f}  "
              f"({(null_us / baseline - 1) * 100:+.1f}%)")

    print("\n== 3. SMP support on one processor (Section 5) ==")
    for workload, workers, bound in (
        ("sem_posix", 256, 3), ("futex", 256, 8), ("make-j", 64, 3)
    ):
        ((_, overhead),) = smp_overhead(workload, (workers,))
        print(f"   {workload:<10} {workers:>4} workers: {overhead * 100:5.2f}% "
              f"overhead (paper bound: {bound}%)")


if __name__ == "__main__":
    main()
