#!/usr/bin/env python3
"""Single-time-authority lint: one virtual clock, no private timelines,
one thread.

Since the ``repro.simcore`` refactor, simulated time has exactly one
authority: :class:`repro.simcore.clock.VirtualClock` (reached ambiently
through :func:`repro.simcore.context.current_clock`).  This AST lint
keeps it that way across ``src/repro``:

- **no-clock-internals** -- reaching a clock's ``._now_ns`` accumulator
  outside ``repro/simcore``.  A clock moves only through ``advance``,
  ``advance_to`` and ``jump_to``, which perfbench counts as
  ``simcore.clock.advance``: ``advance`` and ``advance_to`` reject time
  reversal, and ``jump_to`` is the one explicit rebase.  Storing the
  accumulator directly would skip both the check and the count, so a
  fold that lands a clock must do it through the clock's own API.
- **no-clock-field** -- declaring a class-level accumulator field named
  like a timeline (``clock_ns``, ``time_us``, ``now_ms``, ...) outside
  the time-authority modules.  Layers hold a ``clock: VirtualClock`` and
  advance it; read-only ``clock_ns`` *properties* over that clock are
  fine (and are how legacy call sites keep working).
- **no-direct-clock-in-fleet** -- constructing a ``VirtualClock``
  directly inside a fleet code path (:data:`FLEET_PATHS`).  Fleet guests
  must obtain clocks from the global
  :class:`repro.simcore.eventcore.EventCore` (``core.clock_for(name)``)
  so every fleet timeline is registered with -- and order-visible to --
  the one global event heap.  Standalone layers elsewhere may still
  default-construct private clocks for isolated tests.
- **no-threads** -- importing or naming a thread API (``threading``,
  ``_thread``, ``ThreadPoolExecutor``, ``multiprocessing.dummy``,
  ``ThreadPool``) anywhere under ``src/repro``; see
  :func:`thread_violation`.

no-clock-internals exempts ``repro/simcore`` (the authority itself);
no-clock-field and no-direct-clock-in-fleet exempt it and
``repro/observe`` (the tracer view); no-threads covers every module.
Run: ``python tools/lint_time.py`` (exit 1 on violations); wired into
``tools/check.sh`` and CI.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from typing import Iterator, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Directories (relative to src/repro) allowed to own or advance time.
ALLOWED = ("simcore", "observe")

#: The directory (relative to src/repro) that owns the clock internals.
CLOCK_OWNER = "simcore"

#: The ``VirtualClock`` accumulator no module outside :data:`CLOCK_OWNER`
#: may reach.
CLOCK_ACCUMULATOR = "_now_ns"

#: Fleet code paths (relative to src/repro): modules that orchestrate
#: many guests and therefore must source clocks from the EventCore.
#: Entries ending in "/" cover a whole directory (every module of the
#: traffic layer routes across fleet timelines).  The ``traffic/`` entry
#: also covers the usage-recording hooks (``router.py`` attaching
#: ``UsageTrace`` recorders to worker guests): recorders count exercised
#: syscalls/options, never time, so they stay clean under both lints by
#: construction.
FLEET_PATHS = ("core/orchestrator.py", "traffic/")

#: Class-level field names that smell like a private timeline.  Duration
#: parameters and result records (``deadline_ms``, ``elapsed_ns``, ...)
#: are fine -- the lint targets *accumulating* now-state.
CLOCK_FIELD = re.compile(r"^_?(clock|now|time)_(ns|us|ms|s)$")

#: Modules whose import starts or manages threads.
THREAD_MODULES = ("threading", "_thread", "multiprocessing.dummy")

#: Thread-pool names, however they are imported or reached.
THREAD_NAMES = ("ThreadPoolExecutor", "ThreadPool")


def _class_field_names(class_node: ast.ClassDef) -> Iterator[Tuple[str, int]]:
    """Names declared as class-level fields (dataclass-style or plain)."""
    for statement in class_node.body:
        if isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name):
                yield statement.target.id, statement.lineno
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.lineno


def _is_clock_construction(node: ast.Call) -> bool:
    """True for ``VirtualClock(...)`` / ``clock.VirtualClock(...)`` calls."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "VirtualClock"
    return isinstance(func, ast.Attribute) and func.attr == "VirtualClock"


def _is_thread_module(name: str) -> bool:
    return any(name == module or name.startswith(module + ".")
               for module in THREAD_MODULES)


def thread_violation(node: ast.AST) -> Optional[str]:
    """The no-threads rule: what thread API *node* reaches, or None.

    Every process runs ``repro`` code on one thread.  The virtual clock,
    the active-clock stack, the fault plane and its experiment scope,
    the tracer's span stack and the metrics registry hold no locks and
    no per-thread state, so a second thread running ``repro`` code would
    interleave their updates.  Worker *processes* share none of that
    state: ``ProcessPoolExecutor`` and ``multiprocessing`` stay allowed.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            if _is_thread_module(alias.name):
                return f"import {alias.name}"
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if _is_thread_module(module):
            return f"from {module} import ..."
        for alias in node.names:
            if (alias.name in THREAD_NAMES
                    or _is_thread_module(f"{module}.{alias.name}")):
                return f"from {module} import {alias.name}"
    elif isinstance(node, ast.Attribute):
        if node.attr in THREAD_NAMES:
            return f"attribute {node.attr}"
        if (node.attr == "dummy" and isinstance(node.value, ast.Name)
                and node.value.id == "multiprocessing"):
            return "attribute multiprocessing.dummy"
    return None


def lint_source(source: str, label: str, fleet_path: bool = False,
                time_rules: bool = True,
                clock_internals: bool = True) -> List[str]:
    """Violations in one module's *source*, reported against *label*.

    ``time_rules=False`` (simcore/observe) skips no-clock-field and
    no-direct-clock-in-fleet; ``clock_internals=False`` (simcore) skips
    no-clock-internals.  No-threads always runs.
    """
    tree = ast.parse(source, filename=label)
    violations = []
    for node in ast.walk(tree):
        reached = thread_violation(node)
        if reached is not None:
            violations.append(
                f"{label}:{node.lineno}: [no-threads] {reached}: every "
                "process runs repro code on one thread (the clock, fault "
                "plane, tracer and metrics hold no locks); fan out to "
                "worker processes instead"
            )
        if (clock_internals and isinstance(node, ast.Attribute)
                and node.attr == CLOCK_ACCUMULATOR):
            violations.append(
                f"{label}:{node.lineno}: [no-clock-internals] reaching "
                f"a clock's {node.attr} outside repro/simcore; move "
                "clocks with advance/advance_to/jump_to, which reject "
                "time reversal (jump_to is the one explicit rebase)"
            )
        if not time_rules:
            continue
        if (fleet_path and isinstance(node, ast.Call)
                and _is_clock_construction(node)):
            violations.append(
                f"{label}:{node.lineno}: [no-direct-clock-in-fleet] "
                "fleet code constructs a VirtualClock directly; obtain "
                "guest clocks from EventCore.clock_for(name) so the "
                "global event heap sees every fleet timeline"
            )
        elif isinstance(node, ast.ClassDef):
            for name, lineno in _class_field_names(node):
                if CLOCK_FIELD.match(name):
                    violations.append(
                        f"{label}:{lineno}: [no-clock-field] class "
                        f"{node.name} declares private timeline field "
                        f"{name!r}; hold a 'clock: VirtualClock' and "
                        "advance that (expose a read-only property if "
                        "legacy callers need the name)"
                    )
    return violations


def _is_fleet_path(posix_relative: str) -> bool:
    """True when the module falls under a :data:`FLEET_PATHS` entry."""
    for entry in FLEET_PATHS:
        if entry.endswith("/"):
            if posix_relative.startswith(entry):
                return True
        elif posix_relative == entry:
            return True
    return False


def lint_tree() -> List[str]:
    violations: List[str] = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT)
        violations.extend(lint_source(
            path.read_text(encoding="utf-8"),
            str(path.relative_to(REPO_ROOT)),
            fleet_path=_is_fleet_path(relative.as_posix()),
            time_rules=relative.parts[0] not in ALLOWED,
            clock_internals=relative.parts[0] != CLOCK_OWNER,
        ))
    return violations


def main() -> int:
    violations = lint_tree()
    for violation in violations:
        print(violation, file=sys.stderr)
    if violations:
        print(f"lint_time: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_time: ok (single time authority and one thread hold "
          f"across {sum(1 for _ in SRC_ROOT.rglob('*.py'))} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
