"""The experiment registry: a uniform protocol over the experiment modules.

Each module under :mod:`repro.experiments` exposes ``run()`` plus a
``table(results)``/``figure(results)`` renderer that formats what ``run()``
returned.  The registry wraps every one of them in an :class:`Experiment`
-- name, inputs fingerprint, ``run()``, artifact rendered from that run's
result -- so the runner, the CLI, the benchmark drivers and the
EXPERIMENTS.md generator all go through one interface instead of importing
modules ad hoc, and an experiment's simulation executes once per use.

The inputs fingerprint is a content hash of the experiment's source *and
the source of every repro module it (transitively) imports*, salted with
the package version.  It is what keys the on-disk result cache: edit any
model an experiment depends on and only the affected experiments re-run.

Invariants:

- **Fingerprint inputs.** The fingerprint digests exactly: the package
  version, plus (module name, module source) for every module in the
  experiment's transitive ``repro.*`` import closure, in sorted module
  order.  No timestamps, paths, or environment state -- the same tree
  always fingerprints the same, any source edit in the closure changes it.
- **Closure via source text.** Imports are discovered by scanning source
  for ``import repro...`` / ``from repro... import`` (including imports
  local to functions), not by executing modules, so lazily imported
  dependencies still invalidate the cache.
- **Memoization is per-process.** ``_source_cache``, ``_imports_cache``
  and ``_closure_cache`` assume sources do not change within one process
  lifetime.  Each module's source is read and scanned for imports once,
  however many experiment closures contain it.
- **Source errors are counted, not swallowed.** A module whose source
  cannot be read (unimportable, unreadable file) contributes the empty
  string to the digest, but the failure is recorded: the
  ``harness.fingerprint_errors`` counter increments once per failing
  module and every affected experiment's ``registry.fingerprint`` span
  carries a ``source_errors`` attribute naming module and error.
"""

from __future__ import annotations

import hashlib
import importlib
import re
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional

from repro._version import __version__
from repro.metrics.reporting import Figure, render_figure, render_table

#: ``import repro.x.y`` / ``from repro.x.y import z`` in experiment sources.
_IMPORT_RE = re.compile(
    r"^\s*(?:from\s+(repro[.\w]*)\s+import|import\s+(repro[.\w]+))",
    re.MULTILINE,
)

_source_cache: Dict[str, str] = {}
#: module name -> the repro modules its source imports.
_imports_cache: Dict[str, List[str]] = {}
_closure_cache: Dict[str, List[str]] = {}
#: module name -> "ErrorType: message" for every source-read failure seen
#: this process (memoized alongside _source_cache).
_source_errors: Dict[str, str] = {}


def reset_fingerprint_caches() -> None:
    """Drop the per-process source/import/closure/error memos (test
    isolation)."""
    _source_cache.clear()
    _imports_cache.clear()
    _closure_cache.clear()
    _source_errors.clear()


def _note_source_error(module_name: str, error: BaseException) -> None:
    from repro.observe import METRICS

    _source_errors[module_name] = f"{type(error).__name__}: {error}"
    METRICS.counter("harness.fingerprint_errors").inc()


def _module_source(module_name: str) -> str:
    """Source text of *module_name* ('' when it has no readable file).

    Failures are narrow and accounted: only an unimportable module
    (``ImportError``) or an unreadable source file (``OSError``) yields
    '', and each increments ``harness.fingerprint_errors`` once per
    process with the module name kept in ``_source_errors``.  A module
    legitimately without a source file (builtin, namespace package)
    hashes as '' without being counted as an error.
    """
    if module_name not in _source_cache:
        try:
            module = importlib.import_module(module_name)
        except ImportError as error:
            _note_source_error(module_name, error)
            _source_cache[module_name] = ""
            return ""
        filename = getattr(module, "__file__", None)
        if filename is None:
            _source_cache[module_name] = ""
            return ""
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                _source_cache[module_name] = handle.read()
        except OSError as error:
            _note_source_error(module_name, error)
            _source_cache[module_name] = ""
    return _source_cache[module_name]


def _direct_repro_imports(source: str) -> List[str]:
    found = []
    for match in _IMPORT_RE.finditer(source):
        name = match.group(1) or match.group(2)
        if name:
            found.append(name)
    return found


def _module_imports(module_name: str) -> List[str]:
    """The repro modules *module_name*'s source imports, scanned once."""
    if module_name not in _imports_cache:
        _imports_cache[module_name] = _direct_repro_imports(
            _module_source(module_name)
        )
    return _imports_cache[module_name]


def _dependency_closure(module_name: str) -> List[str]:
    """*module_name* plus every repro module reachable from its imports."""
    if module_name in _closure_cache:
        return _closure_cache[module_name]
    seen = set()
    stack = [module_name]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(_module_imports(current))
    closure = sorted(seen)
    _closure_cache[module_name] = closure
    return closure


def module_fingerprint(module_name: str) -> str:
    """Inputs fingerprint of an experiment module (see module docstring)."""
    from repro.observe import METRICS, span

    with span("registry.fingerprint", category="harness",
              module=module_name) as record:
        digest = hashlib.sha256()
        digest.update(f"version={__version__}\n".encode("utf-8"))
        closure = _dependency_closure(module_name)
        record.set_attr("closure_size", len(closure))
        errors = {
            name: _source_errors[name]
            for name in closure if name in _source_errors
        }
        if errors:
            record.set_attr("source_errors", errors)
        for dependency in closure:
            digest.update(dependency.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(_module_source(dependency).encode("utf-8"))
            digest.update(b"\x01")
        METRICS.counter("registry.fingerprints").inc()
        return digest.hexdigest()[:16]


@dataclass(frozen=True)
class Artifact:
    """An experiment's rendered output: plain text plus an optional figure."""

    text: str
    figure: Optional[Figure] = None


@dataclass(frozen=True)
class Experiment:
    """One experiment behind the uniform harness protocol."""

    name: str
    run_fn: Callable[[], Any]
    artifact_fn: Callable[[Any], Artifact]
    fingerprint_fn: Callable[[], str]
    module: Optional[ModuleType] = field(default=None, compare=False)

    def run(self) -> Any:
        """Execute the experiment, returning its structured result."""
        return self.run_fn()

    def artifact(self, result: Any) -> Artifact:
        """Render the paper table/figure from *result*, what ``run()``
        returned; rendering executes no simulation."""
        return self.artifact_fn(result)

    def fingerprint(self) -> str:
        """The inputs fingerprint keying this experiment's cached result."""
        return self.fingerprint_fn()

    @property
    def output_stem(self) -> str:
        """Filename stem under ``benchmarks/output/`` (matches the
        historical benchmark-driver naming)."""
        return self.name.replace("-", "_")

    @classmethod
    def from_module(cls, name: str, module: ModuleType) -> "Experiment":
        if hasattr(module, "table"):
            def _artifact(result: Any) -> Artifact:
                return Artifact(text=render_table(module.table(result)))
        elif hasattr(module, "figure"):
            def _artifact(result: Any) -> Artifact:
                figure = module.figure(result)
                return Artifact(text=render_figure(figure), figure=figure)
        else:
            raise TypeError(
                f"experiment module {module.__name__} has neither "
                "table(results) nor figure(results)"
            )
        return cls(
            name=name,
            run_fn=module.run,
            artifact_fn=_artifact,
            fingerprint_fn=lambda: module_fingerprint(module.__name__),
            module=module,
        )


def all_experiments() -> Dict[str, Experiment]:
    """Every registered experiment, in paper order (fig3 .. ext-security)."""
    from repro.experiments import ALL_EXPERIMENTS

    return {
        name: Experiment.from_module(name, module)
        for name, module in ALL_EXPERIMENTS.items()
    }


def get_experiment(name: str) -> Experiment:
    """Look up one experiment by its registry id (e.g. ``fig7``)."""
    registry = all_experiments()
    if name not in registry:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(registry)}"
        )
    return registry[name]
