#!/usr/bin/env python3
"""Single-time-authority lint: one virtual clock, no private timelines.

Since the ``repro.simcore`` refactor, simulated time has exactly one
authority: :class:`repro.simcore.clock.VirtualClock` (reached ambiently
through :func:`repro.simcore.context.current_clock`).  This AST lint
keeps it that way across ``src/repro``:

- **no-sim-advance** -- calling ``<anything>.sim.advance(...)`` (i.e.
  ``TRACER.sim.advance``) outside the time-authority modules.  The
  tracer's sim axis is a read-only *view* of the active guest clock;
  advancing time through it would bypass the clock's event queue and
  deadline dispatch.
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

Allowed locations: ``repro/simcore`` (the authority itself) and
``repro/observe`` (the tracer view).  Run:
``python tools/lint_time.py`` (exit 1 on violations); wired into
``tools/check.sh`` and CI.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from typing import Iterator, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: Directories (relative to src/repro) allowed to own or advance time.
ALLOWED = ("simcore", "observe")

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


def _is_sim_advance(node: ast.Call) -> bool:
    """True for any ``<expr>.sim.advance(...)`` call."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "advance"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "sim"
    )


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


def lint_file(path: pathlib.Path, fleet_path: bool = False) -> List[str]:
    relative = path.relative_to(REPO_ROOT)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(relative))
    violations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_sim_advance(node):
            violations.append(
                f"{relative}:{node.lineno}: [no-sim-advance] advancing "
                "time through the tracer's sim view; advance "
                "repro.simcore.context.current_clock() instead"
            )
        elif (fleet_path and isinstance(node, ast.Call)
                and _is_clock_construction(node)):
            violations.append(
                f"{relative}:{node.lineno}: [no-direct-clock-in-fleet] "
                "fleet code constructs a VirtualClock directly; obtain "
                "guest clocks from EventCore.clock_for(name) so the "
                "global event heap sees every fleet timeline"
            )
        elif isinstance(node, ast.ClassDef):
            for name, lineno in _class_field_names(node):
                if CLOCK_FIELD.match(name):
                    violations.append(
                        f"{relative}:{lineno}: [no-clock-field] class "
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
        if relative.parts and relative.parts[0] in ALLOWED:
            continue
        violations.extend(lint_file(
            path, fleet_path=_is_fleet_path(relative.as_posix())
        ))
    return violations


def main() -> int:
    violations = lint_tree()
    for violation in violations:
        print(violation, file=sys.stderr)
    if violations:
        print(f"lint_time: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_time: ok (single time authority holds across "
          f"{sum(1 for _ in SRC_ROOT.rglob('*.py'))} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
