#!/usr/bin/env python3
"""Reachability gate: every module under ``src/repro`` ships for a reason.

Walks ``repro.*`` imports statically with :mod:`ast`, starting from the
entry points a user or a gate runs -- ``src/repro/cli.py``,
``perfbench/*.py``, ``tools/*.py`` and ``examples/*.py`` -- and names
every ``src/repro`` module the walk never reaches.  Nothing is imported
or executed.  The rules:

- function-local imports count like module-level ones;
- ``from repro.pkg import name`` reaches ``repro.pkg.name`` when that is
  a module, and the package ``repro.pkg`` when some imported name is not
  a module;
- a string constant that is exactly a module name reaches that module:
  the ``importlib`` tables (``repro.cli.BENCHES``,
  ``repro.core.orchestrator._PROFILE_BY_APP``) name modules this way;
- a package ``__init__`` is reached only when something imports the
  package itself, not when it imports a submodule, so re-exports cannot
  keep a dead module alive.  An ``__init__`` that holds only a docstring
  is never reported.

A module reached only from ``tests/`` is a test-only substrate or an
oracle: it belongs in ``tests/``, not in the shipped package.  Run:
``python tools/check_reachability.py`` (exit 1 naming each unreached
module); wired into ``tools/check.sh``.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, List, Optional, Set

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where the walk starts, as globs relative to the repository root.
ENTRY_POINTS = ("src/repro/cli.py", "perfbench/*.py", "tools/*.py",
                "examples/*.py")


def package_modules(root: pathlib.Path) -> Dict[str, pathlib.Path]:
    """Dotted module name -> source file, for everything under src/repro."""
    src = root / "src"
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _base(node: ast.ImportFrom, module: Optional[str],
          is_package: bool) -> Optional[str]:
    """The absolute module a ``from ... import`` statement reads from."""
    if not node.level:
        return node.module
    if module is None:
        return None
    parts = module.split(".")
    drop = node.level - 1 if is_package else node.level
    if drop:
        parts = parts[:-drop]
    return ".".join(parts + ([node.module] if node.module else []))


def references(path: pathlib.Path, module: Optional[str],
               modules: Dict[str, pathlib.Path]) -> Set[str]:
    """The package modules that the source file *path* reaches directly."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    is_package = path.name == "__init__.py"
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _base(node, module, is_package)
            if base is None:
                continue
            submodules = {f"{base}.{alias.name}" for alias in node.names}
            names.update(submodules)
            if not submodules <= modules.keys():
                names.add(base)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names & modules.keys()


def docstring_only(path: pathlib.Path) -> bool:
    body = ast.parse(path.read_text(encoding="utf-8")).body
    return all(
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and isinstance(statement.value.value, str)
        for statement in body
    )


def unreached(root: pathlib.Path = REPO_ROOT) -> List[str]:
    """Repository-relative paths of the src/repro modules never reached."""
    modules = package_modules(root)
    by_path = {path: name for name, path in modules.items()}
    pending: List[str] = []
    for pattern in ENTRY_POINTS:
        for path in sorted(root.glob(pattern)):
            name = by_path.get(path)
            if name is not None:
                pending.append(name)
            else:
                pending.extend(references(path, None, modules))
    reached: Set[str] = set()
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        pending.extend(references(modules[name], name, modules))
    return [
        str(path.relative_to(root))
        for name, path in sorted(modules.items())
        if name not in reached
        and not (path.name == "__init__.py" and docstring_only(path))
    ]


def main() -> int:
    missing = unreached()
    for path in missing:
        print(f"{path}: not reached from any entry point "
              f"({', '.join(ENTRY_POINTS)})", file=sys.stderr)
    if missing:
        print(f"check_reachability: {len(missing)} unreached module(s); "
              "delete them or move them to tests/", file=sys.stderr)
        return 1
    print(f"check_reachability: ok ({len(package_modules(REPO_ROOT))} "
          "modules under src/repro, each reached from an entry point)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
