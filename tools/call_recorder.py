#!/usr/bin/env python3
"""Call recorder: the functions in ``src/repro`` no shipped command enters.

Runs every CLI verb (:data:`CLI_RUNS`), each ``examples/*.py``
``main()`` and the EXPERIMENTS.md generator (from a temporary working
directory, as ``tools/check.sh`` runs it), one child process each,
under ``sys.settrace`` with call events only (no line tracing), and
prints every ``def`` in
``src/repro`` that no run entered, per file, with its line count.  A
function counts as entered when a call event fires for a code object
whose file and first line are the ``def``'s (its first decorator's,
when decorated).  The totals line reads ``N of M functions never
entered (L lines)``, L being the sum of those functions' line counts
(a nested function counts inside its parent too).

This is the measurement behind ROADMAP item 3: code only tests reach
belongs in ``tests/``.  Standard library only.  It takes minutes (the
traced ``bench-serve`` and ``fleet-serve`` runs dominate), so it is not
a ``tools/check.sh`` step.  Run: ``python tools/call_recorder.py``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: CLI argument lists, run in order; ``{out}`` is one scratch output
#: directory the runs share (``trace --run`` and ``regress`` read what
#: ``run-all`` wrote there).
CLI_RUNS: Tuple[Tuple[str, ...], ...] = (
    ("run-all", "--cold", "--output-dir", "{out}"),
    ("run-all", "--output-dir", "{out}"),
    ("chaos", "--output-dir", "{out}/chaos"),
    ("bench-resolve", "--check", "--output-dir", "{out}"),
    ("bench-guests", "--check", "--output-dir", "{out}"),
    ("bench-serve", "--check", "--output-dir", "{out}"),
    ("bench-derive", "--check", "--output-dir", "{out}"),
    ("fleet-serve", "--output-dir", "{out}"),
    ("fleet-serve", "--chaos", "--policy", "all", "--output-dir", "{out}"),
    ("fleet-serve", "--record-usage", "--output-dir", "{out}"),
    ("fleet-serve", "--trace", "poisson", "--requests", "2000",
     "--guests", "50", "--idle-timeout", "0.5", "--output-dir", "{out}"),
    ("fleet-serve", "--trace", "bursty", "--requests", "2000",
     "--guests", "50", "--idle-timeout", "0.5", "--output-dir", "{out}"),
    ("apps",),
    ("build", "redis"),
    ("boot", "redis"),
    ("config", "redis", "--full"),
    ("experiment", "fig3"),
    ("trace", "nginx", "--counts"),
    ("trace", "--run", "--output-dir", "{out}"),
    ("regress", "benchmarks/baseline", "{out}", "--no-timings"),
    ("derive", "--defconfig"),
    ("diff", "microvm", "lupine-base", "--options"),
    ("diff", "microvm", "derived:redis"),
    ("selfcheck",),
    ("dmesg", "redis"),
    ("lmbench",),
    ("footprint", "redis"),
)

#: The traced child: records (file, first line) of every code object
#: entered under *prefix*, runs *body*, and writes the set to *record*.
#: A forked worker process inherits the trace hook but leaves through
#: ``os._exit``, past the ``finally``: each one writes what it entered to
#: ``<record>.<pid>`` from a finalizer, which ``Process._bootstrap`` runs
#: before it exits.  The finalizer is registered after the fork, as
#: ``_bootstrap`` drops the ones the parent registered.
_CHILD = """\
import json, multiprocessing.util, os, sys
sys.path[:0] = {path!r}
entered = set()

def _on_call(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith({prefix!r}):
        entered.add((code.co_filename, code.co_firstlineno))

def _write(record):
    sys.settrace(None)
    with open(record, "w", encoding="utf-8") as handle:
        json.dump(sorted(entered), handle)

def _record_worker(write):
    multiprocessing.util.Finalize(
        None, write, (f"{{{record!r}}}.{{os.getpid()}}",), exitpriority=0)

multiprocessing.util.register_after_fork(_write, _record_worker)
sys.settrace(_on_call)
try:
{body}
finally:
    _write({record!r})
"""

#: The EXPERIMENTS.md generator as ``tools/check.sh`` runs it: as a
#: script, from an empty working directory it writes its output into.
_GENERATOR = """\
import os, runpy, tempfile
home = os.getcwd()
with tempfile.TemporaryDirectory(prefix="call-recorder-gen-") as cwd:
    os.chdir(cwd)
    try:
        runpy.run_path({script!r}, run_name="__main__")
    except SystemExit as done:
        if done.code:
            raise
    finally:
        os.chdir(home)
"""


class Function(NamedTuple):
    """One ``def``: where it starts (first decorator) and ends."""

    path: str
    first_line: int
    last_line: int
    name: str


def functions(package: Path) -> List[Function]:
    """Every function and method defined under *package*, in file order."""
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno
                                             for d in node.decorator_list])
                found.append(Function(str(path), first, node.end_lineno,
                                      node.name))
    return sorted(found)


def record(bodies: Iterable[str], package: Path,
           path: Sequence[Path]) -> Set[Tuple[str, int]]:
    """Run each *body* in a traced child process; the union of what each
    entered under *package*.  *path* is prepended to the child's
    ``sys.path``; a child that exits nonzero raises."""
    entered: Set[Tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="call-recorder-") as scratch:
        target = os.path.join(scratch, "entered.json")
        for body in bodies:
            script = _CHILD.format(
                path=[str(entry) for entry in path],
                prefix=str(package) + os.sep,
                body="\n".join("    " + line for line in body.splitlines()),
                record=target,
            )
            subprocess.run([sys.executable, "-c", script], cwd=REPO_ROOT,
                           stdout=subprocess.DEVNULL, check=True)
            # The child's record, plus one per worker process it forked.
            for part in sorted(Path(scratch).iterdir()):
                with open(part, encoding="utf-8") as handle:
                    entered.update(tuple(pair) for pair in json.load(handle))
                part.unlink()
    return entered


def never_entered(package: Path, bodies: Iterable[str],
                  path: Sequence[Path]) -> List[Function]:
    """The functions under *package* none of the *bodies* entered."""
    entered = record(bodies, package, path)
    return [function for function in functions(package)
            if (function.path, function.first_line) not in entered]


def _lines(missed: Iterable[Function]) -> int:
    return sum(function.last_line - function.first_line + 1
               for function in missed)


def _bodies(out: str) -> List[str]:
    bodies = [
        "from repro.cli import main\n"
        f"if main({[arg.format(out=out) for arg in argv]!r}):\n"
        f"    raise SystemExit({' '.join(argv) + ' failed'!r})"
        for argv in CLI_RUNS
    ]
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        bodies.append(
            "import runpy\n"
            f"runpy.run_path({str(example)!r})['main']()"
        )
    bodies.append(_GENERATOR.format(
        script=str(REPO_ROOT / "tools" / "generate_experiments_md.py")
    ))
    return bodies


def main() -> int:
    package = SRC / "repro"
    with tempfile.TemporaryDirectory(prefix="call-recorder-out-") as out:
        missed = never_entered(package, _bodies(out), [SRC])
    by_file: Dict[str, List[Function]] = {}
    for function in missed:
        by_file.setdefault(function.path, []).append(function)
    for path, entries in by_file.items():
        print(f"{Path(path).relative_to(REPO_ROOT)} "
              f"({len(entries)} functions, {_lines(entries)} lines)")
        for function in entries:
            span = function.last_line - function.first_line + 1
            print(f"  {function.first_line:>5}  {function.name} ({span})")
    total = len(functions(package))
    print(f"{len(missed)} of {total} functions never entered "
          f"({_lines(missed)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
