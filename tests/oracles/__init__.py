"""Reference models that check shipped code and are not shipped with it.

- :mod:`tests.oracles.eventloop` -- epoll/eventfd/timerfd over the
  scheduler, charging the syscall engine.
- :mod:`tests.oracles.eventserver` -- a single-task epoll server that
  *executes* requests on that loop; ``tests/test_eventserver.py`` checks
  :class:`~repro.workloads.server.LinuxServerStack`'s analytic costs
  against it.
"""
