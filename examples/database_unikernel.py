#!/usr/bin/env python3
"""A database in unikernel clothing: postgres on Lupine.

postgres is the paper's example of an application that does *not* fit the
unikernel mold (five processes, System V IPC, fork per connection) -- every
comparator unikernel rejects or crashes on it, while Lupine just re-enables
the 'multi-process' config options and runs it (Sections 4.1 and 5).

This example derives postgres's options from a traced run, builds a
slimmed postgres unikernel, shows the kernel knows about SysV IPC, boots it,
forks backends, and runs a pgbench-style TPC-B load -- then demonstrates the
flip side: the same workload fails with a clean ENOSYS on a redis-shaped
kernel.

Run: ``python examples/database_unikernel.py``
"""

from repro.apps.registry import get_app
from repro.core.lupine import LupineBuilder
from repro.core.manifest import generate_manifest
from repro.core.tracing import trace_app_run
from repro.core.variants import Variant
from repro.kconfig.derive import usage_option_requirements
from repro.rootfs.slim import slim_container
from repro.rootfs.container import container_for_app
from repro.syscall.dispatch import SyscallNotImplemented
from repro.workloads.pgbench import PgBench
from repro.workloads.server import LinuxServerStack


def main() -> None:
    postgres = get_app("postgres")

    print("== 1. trace-driven manifest (the paper's future-work path) ==")
    trace = trace_app_run(postgres)
    options = usage_option_requirements(trace)
    print(f"   traced {trace.call_count} syscalls "
          f"({len(trace.syscalls)} distinct), "
          f"facilities: {', '.join(sorted(trace.facilities))}")
    print(f"   derived options: {', '.join(sorted(options))}")
    assert options == postgres.required_options

    print("\n== 2. slimmed container ==")
    container = container_for_app(postgres)
    slimmed, report = slim_container(container, generate_manifest(postgres))
    print(f"   {report.original_files} files -> {report.kept_files} "
          f"({report.size_reduction:.0%} smaller)")

    print("\n== 3. build + boot ==")
    unikernel = LupineBuilder(variant=Variant.LUPINE, slim=True).build_for_app(
        postgres
    )
    print(f"   kernel {unikernel.kernel_image_mb:.2f} MB, "
          f"rootfs {unikernel.rootfs_size_mb:.2f} MB, "
          f"min memory {unikernel.min_memory_mb()} MB")
    guest = unikernel.boot()
    print(f"   booted in {guest.boot_report.total_ms:.1f} ms; "
          f"success: {guest.ran_successfully}")

    print("\n== 4. multi-process behaviour ==")
    backends = [guest.fork_app() for _ in range(4)]
    print(f"   forked {len(backends)} backends: "
          f"pids {[task.pid for task in backends]}")

    print("\n== 5. pgbench (TPC-B-ish) ==")
    stack = LinuxServerStack(
        engine=unikernel.build.syscall_engine(),
        netpath=unikernel.build.network_path(),
    )
    PgBench.check_kernel(stack.engine)
    tps = PgBench(transactions=300).tps(stack)
    print(f"   {tps:,.0f} transactions/s on lupine[postgres]")

    print("\n== 6. and on a redis-shaped kernel? ==")
    redis_unikernel = LupineBuilder(variant=Variant.LUPINE).build_for_app(
        get_app("redis")
    )
    try:
        PgBench.check_kernel(redis_unikernel.build.syscall_engine())
    except SyscallNotImplemented as error:
        print(f"   clean failure, no crash: {error}")


if __name__ == "__main__":
    main()
