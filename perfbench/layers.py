"""Per-layer host-time accounting for the traced benchmark run.

The traced run wraps the public functions at each layer boundary from
outside the program: a method is replaced on its class, a module-level
function in every loaded ``repro`` module that bound it.  Nothing in
``src/`` changes, and untraced runs never install these wrappers (they
run in other processes).

Two kinds of wrapper:

- *timed* boundaries keep a stack of open calls, so a call's self time
  is its duration minus the time spent in nested timed calls.  The self
  times of all calls therefore sum to the total duration of the
  outermost calls;
- *counted* boundaries only count entries.  They sit on paths entered
  several times per request (context managers, the cost model, clock
  advances), where timing every entry would swamp what it measures.

Every timed call also becomes a span (boundary, start, duration, depth
and, for ``Router.dispatch``, the arrival index), kept in memory up to
``span_cap`` and written at the end as a Chrome trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

TIMED = "timed"
COUNTED = "counted"

#: Marks a function as one of this module's wrappers.
_MARK = "__perfbench_boundary__"


def _arrival_index(args: Tuple[Any, ...]) -> Any:
    return args[1].index


#: (boundary, kind, targets, span label).  A target is ``(module, class
#: or None, attribute)``; attribute ``*`` wraps every public method the
#: class defines.  Boundary names prefix the per-layer metric names.
BOUNDARIES: List[Tuple[str, str, List[Tuple[str, Optional[str], str]],
                       Optional[Callable[[Tuple[Any, ...]], Any]]]] = [
    ("traffic.dispatch", TIMED,
     [("repro.traffic.router", "Router", "dispatch")], _arrival_index),
    ("traffic.arrivals", TIMED,
     [("repro.traffic.arrivals", "ArrivalSource", "arm_next")], None),
    ("simcore.eventcore.run", TIMED,
     [("repro.simcore.eventcore", "EventCore", "run")], None),
    ("simcore.guest.serve", TIMED,
     [("repro.simcore.guest", "Guest", "serve")], None),
    ("simcore.guest.build", TIMED,
     [("repro.simcore.guest", "Guest", "build")], None),
    ("simcore.guest.boot", TIMED,
     [("repro.simcore.guest", "Guest", "boot")], None),
    ("simcore.guest.shutdown", TIMED,
     [("repro.simcore.guest", "Guest", "shutdown")], None),
    ("faults.fault_site", COUNTED,
     [("repro.faults.plane", None, "fault_site")], None),
    ("simcore.use_clock", COUNTED,
     [("repro.simcore.context", None, "use_clock")], None),
    ("syscall.invoke_batch", TIMED,
     [("repro.syscall.dispatch", "SyscallEngine", "invoke_batch")], None),
    ("syscall.cost_model", COUNTED,
     [("repro.syscall.cpu", "CpuCostModel", "syscall_ns")], None),
    ("syscall.invoke", TIMED,
     [("repro.syscall.dispatch", "SyscallEngine", "invoke")], None),
    ("syscall.engine_build", TIMED,
     [("repro.syscall.dispatch", "SyscallEngine", "for_config")], None),
    ("boot.boot", TIMED,
     [("repro.boot.bootsim", "BootSimulator", "boot")], None),
    ("vmm.check_linux_guest", TIMED,
     [("repro.vmm.monitor", "Monitor", "check_linux_guest")], None),
    ("kconfig.config_enabled", TIMED,
     [("repro.kconfig.resolver", "ResolvedConfig", "enabled")], None),
    ("kconfig.resolve", TIMED,
     [("repro.kconfig.resolver", "Resolver", "resolve"),
      ("repro.kconfig.resolver", "Resolver", "resolve_from")], None),
    ("kconfig.tree_build", TIMED,
     [("repro.kconfig.database", None, "build_linux_tree")], None),
    ("kbuild.build", TIMED,
     [("repro.kbuild.builder", "KernelBuilder", "build")], None),
    ("core.build_cache", COUNTED,
     [("repro.core.buildcache", "KernelBuildCache", "get_or_build")], None),
    ("core.unikernel_for", TIMED,
     [("repro.core.orchestrator", "KernelOrchestrator", "unikernel_for")],
     None),
    ("netstack.build", TIMED,
     [("repro.netstack.tcp", None, "stack_for_config"),
      ("repro.netstack.path", "NetworkPath", "for_options")], None),
    ("sched.scheduler", TIMED,
     [("repro.sched.scheduler", "Scheduler", "*")], None),
    ("sched.futex", TIMED,
     [("repro.sched.futex", "FutexTable", "*")], None),
    ("simcore.clock.advance", COUNTED,
     [("repro.simcore.clock", "VirtualClock", "advance"),
      ("repro.simcore.clock", "VirtualClock", "advance_to"),
      ("repro.simcore.clock", "VirtualClock", "jump_to")], None),
    ("mm.footprint", TIMED,
     [("repro.mm.footprint", None, "measure_min_memory_mb")], None),
    ("harness.fingerprint", TIMED,
     [("repro.harness.registry", None, "module_fingerprint")], None),
    ("harness.resultcache.store", TIMED,
     [("repro.harness.resultcache", "ResultCache", "store")], None),
]

#: The lru_cache surface a wrapped cached function must keep exposing.
_CACHE_ATTRS = ("cache_clear", "cache_info", "cache_parameters")


def _public_methods(cls: type) -> List[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and not isinstance(value, property)
            and callable(getattr(cls, name))]


def _resolve(target: Tuple[str, Optional[str], str]) -> List[Tuple[Any, str]]:
    """``(owner, attribute)`` pairs a target names (owner: class or module)."""
    module_name, class_name, attr = target
    module = importlib.import_module(module_name)
    if class_name is None:
        return [(module, attr)]
    cls = getattr(module, class_name)
    names = _public_methods(cls) if attr == "*" else [attr]
    return [(cls, name) for name in names]


def _function_of(owner: Any, attr: str) -> Any:
    raw = vars(owner)[attr]
    if isinstance(raw, property):
        return raw.fget
    return getattr(raw, "__func__", raw)


def wrapped_boundaries() -> List[str]:
    """Boundaries whose target currently carries one of these wrappers."""
    return [
        boundary for boundary, _, targets, _ in BOUNDARIES
        if any(getattr(_function_of(owner, attr), _MARK, False)
               for target in targets for owner, attr in _resolve(target))
    ]


class LayerTrace:
    """Installs the boundary wrappers and accumulates what they see."""

    def __init__(self, span_cap: int = 200_000) -> None:
        self.span_cap = span_cap
        self.calls: Dict[str, List[int]] = {}
        self.self_s: Dict[str, List[float]] = {}
        #: Finished timed calls: (boundary, start, duration, depth, label).
        self.spans: List[Tuple[str, float, float, int, Any]] = []
        self.spans_dropped = 0
        #: Summed duration of outermost timed calls (== sum of self times).
        self.root_s = [0.0]
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, boundary: str, fn: Callable,
               label: Optional[Callable]) -> Callable:
        calls = self.calls[boundary]
        self_s = self.self_s[boundary]
        stack = self._stack
        spans = self.spans
        root = self.root_s
        trace = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _perf() - start
                stack.pop()
                calls[0] += 1
                self_s[0] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    root[0] += duration
                if len(spans) < trace.span_cap:
                    spans.append((boundary, start, duration, len(stack),
                                  label(args) if label else None))
                else:
                    trace.spans_dropped += 1

        return wrapper

    def _counted(self, boundary: str, fn: Callable) -> Callable:
        calls = self.calls[boundary]

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, boundary: str, kind: str, fn: Callable,
              label: Optional[Callable]) -> Callable:
        if kind == TIMED:
            wrapper = self._timed(boundary, fn, label)
        else:
            wrapper = self._counted(boundary, fn)
        for attr in _CACHE_ATTRS:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        setattr(wrapper, _MARK, True)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES`."""
        for boundary, kind, targets, label in BOUNDARIES:
            self.calls[boundary] = [0]
            if kind == TIMED:
                self.self_s[boundary] = [0.0]
            for target in targets:
                for owner, attr in _resolve(target):
                    if isinstance(owner, type):
                        self._patch_method(owner, attr, boundary, kind, label)
                    else:
                        self._patch_function(owner, attr, boundary, kind,
                                             label)

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch_function(self, module: Any, attr: str, boundary: str,
                        kind: str, label: Optional[Callable]) -> None:
        original = getattr(module, attr)
        wrapper = self._wrap(boundary, kind, original, label)
        # ``from x import f`` copies the binding: rebind it everywhere.
        for name, loaded in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def _patch_method(self, cls: type, attr: str, boundary: str, kind: str,
                      label: Optional[Callable]) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, property):
            new: Any = property(self._wrap(boundary, kind, raw.fget, label),
                                raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(boundary, kind, raw.__func__, label))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(boundary, kind, raw.__func__,
                                          label))
        else:
            new = self._wrap(boundary, kind, raw, label)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)

    # -- results -----------------------------------------------------------

    def call_counts(self) -> Dict[str, int]:
        return {boundary: calls[0] for boundary, calls in self.calls.items()}

    def self_times(self) -> Dict[str, float]:
        return {boundary: value[0] for boundary, value in self.self_s.items()}

    def write_chrome_trace(self, path: str, origin: float) -> None:
        """Write the kept spans as Chrome trace-event JSON (``X`` events)."""
        events = []
        for boundary, start, duration, depth, label in self.spans:
            args: Dict[str, Any] = {"depth": depth}
            if label is not None:
                args["arrival_index"] = label
            events.append({
                "name": boundary,
                "cat": boundary.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"spans_dropped": self.spans_dropped}},
                      handle)
