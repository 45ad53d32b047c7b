"""Reference models that check shipped code and are not shipped with it.

- :mod:`tests.oracles.eventloop` -- epoll/eventfd/timerfd over the
  scheduler, charging the syscall engine.
- :mod:`tests.oracles.eventserver` -- a single-task epoll server that
  *executes* requests on that loop; ``tests/test_eventserver.py`` checks
  :class:`~repro.workloads.server.LinuxServerStack`'s analytic costs
  against it.
- :mod:`tests.oracles.footprint` -- Figure 8's boot attempt replayed one
  page at a time against the memory budget; ``FootprintModel.try_boot``'s
  page sum must decide every boot the same way.
- :mod:`tests.oracles.messaging` -- perf sched messaging as one loop that
  interleaves the engine's syscalls with the scheduler's rounds; the split
  parts and Figure 12's shared sweep must equal it float for float.
- :mod:`tests.oracles.smp_stress` -- the Section 5 futex and semaphore
  stresses stepped through the real scheduler, futex table and semaphore;
  the per-round clock-charge fold must equal it float for float.
"""
