"""Syscall tracing: the recorded run behind trace-driven derivation.

The paper derives per-app configurations manually from error messages and
points at dynamic analysis (DockerSlim, Twistlock) as the automated path.
This module implements that path inside the simulation: run the application
on a *fully provisioned* kernel (microVM's configuration, where every
syscall works) with a :class:`~repro.syscall.usage.UsageTrace` attached,
so every syscall it issues and every kernel facility it touches is
recorded.  :func:`repro.kconfig.derive.usage_option_requirements` maps the
recording to Kconfig options.

The run drives a real :class:`~repro.syscall.dispatch.SyscallEngine`, so
the traced calls are checked against the syscall table -- tracing an app
whose model lists a nonexistent syscall fails loudly rather than producing
a bogus recording.
"""

from __future__ import annotations

from typing import Tuple

from repro.apps.app import Application
from repro.kconfig.configs import microvm_config
from repro.syscall.dispatch import SyscallEngine
from repro.syscall.usage import UsageTrace

#: The syscall order of a typical dynamically-linked ELF startup (execve
#: through libc init), used to give traces a realistic prefix.
_STARTUP_SEQUENCE: Tuple[str, ...] = (
    "execve", "brk", "mmap", "access", "openat", "fstat", "mmap", "close",
    "openat", "read", "fstat", "mmap", "mprotect", "mmap", "close",
    "arch_prctl", "mprotect", "munmap", "set_tid_address", "rt_sigaction",
    "rt_sigprocmask", "prlimit64", "getrandom", "brk",
)


def _recorded_run(app: Application) -> SyscallEngine:
    """The standard app run on the trace kernel (microVM config, where
    every syscall works); the recording is the engine's ``usage``."""
    engine = SyscallEngine.for_config(microvm_config().enabled)
    engine.usage = UsageTrace(owner=app.name)
    for name in _STARTUP_SEQUENCE:
        engine.invoke(name)

    # Configuration file reads.
    for _ in range(2):
        engine.invoke("openat")
        engine.invoke("read")
        engine.invoke("close")

    # Facility-driven startup behaviour.
    for facility in sorted(app.facilities):
        kind, _, detail = facility.partition(":")
        if kind == "socket":
            engine.invoke("socket")
            engine.invoke("bind")
            if detail != "packet":
                engine.invoke("listen")
        elif kind == "mount":
            engine.invoke("mount")
        elif kind == "crypto":
            engine.invoke("socket")  # AF_ALG
        engine.usage.record_facility(facility)

    if app.uses_fork_at_startup:
        engine.invoke("fork")
        engine.invoke("wait4")

    # One runtime pass over every distinct syscall the app issues.
    for name in sorted(app.syscalls):
        engine.invoke(name)
    return engine


def trace_app_run(app: Application) -> UsageTrace:
    """Record *app*'s startup + one pass over its runtime syscalls.

    The run consists of the ELF/libc startup prefix, the app's own startup
    behaviour (config files, socket setup, mounts -- driven by its declared
    facilities), then one pass over every distinct syscall the app uses at
    runtime, so rarely-exercised gated calls still land in the trace.
    """
    return _recorded_run(app).usage


def usage_trace_for_app(app: Application) -> UsageTrace:
    """Record *app*'s usage set: :func:`trace_app_run` plus serving.

    This is the recording half of the Loupe loop.  Apps with a serving
    profile additionally serve a short request burst through
    ``invoke_batch``, so closed-form folds contribute to the recorded
    usage exactly as they do at fleet scale -- attribution without
    stepping.
    """
    from repro.core.orchestrator import serving_profile  # avoid cycle

    engine = _recorded_run(app)
    profile = serving_profile(app.name)
    if profile is not None:
        # Served requests arrive over TCP: serving is itself an observed
        # use of the inet stack, whether or not the curated manifest
        # lists it (php's does not -- measurement catches it).
        engine.usage.record_facility("socket:inet")
        engine.invoke_batch(list(profile.syscalls), profile.app_ns, repeats=16)
    return engine.usage
