"""simcore: the unified guest runtime on a single virtual-time core.

Three pieces:

- :mod:`repro.simcore.clock` / :mod:`repro.simcore.context` -- the
  per-guest :class:`VirtualClock` (a monotonic ns accumulator) and the
  *active clock* every time-modelling layer advances;
- :mod:`repro.simcore.guest` -- the :class:`Guest` lifecycle object
  (``GuestSpec -> build -> boot -> serve -> shutdown``) composing
  monitor, kernel image, syscall engine, network path, scheduler and
  workload around one clock;
- :mod:`repro.simcore.eventcore` -- the fleet-wide :class:`EventCore`:
  one global heap of the instants guest programs wait for, interleaving
  guests in virtual-time order (the core traffic serving runs on), with
  idle guests fast-forwarded in closed form.

``guest`` is exported lazily (PEP 562): it imports the build pipeline
and observability layers, which themselves import ``simcore.clock``, so
an eager import here would cycle.

See ``docs/GUEST_RUNTIME.md`` for the lifecycle and clock-ownership
rules.
"""

from __future__ import annotations

from repro.simcore.clock import ClockError, VirtualClock
from repro.simcore.context import current_clock, default_clock, use_clock
from repro.simcore.eventcore import EventCore, EventCoreError, EventCoreStats

_LAZY = (
    "Guest",
    "GuestLifecycleError",
    "GuestSpec",
    "GuestState",
    "guest_for_app",
    "microvm_guest",
    "variant_guest",
)


def __getattr__(name: str):
    if name in _LAZY:
        from repro.simcore import guest as _guest

        return getattr(_guest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ClockError",
    "EventCore",
    "EventCoreError",
    "EventCoreStats",
    "VirtualClock",
    "current_clock",
    "default_clock",
    "use_clock",
    *_LAZY,
]
