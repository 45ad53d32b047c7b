"""The on-disk experiment result cache.

One JSON file per experiment, keyed on the experiment's inputs
fingerprint: a warm run with unchanged inputs loads the stored result and
rendered artifact instead of re-executing, and a fingerprint mismatch
(changed source anywhere in the experiment's dependency closure) is a
miss.  Files are canonical JSON (sorted keys, compact separators, no
indentation, which would drop CPython to its pure-Python encoder) so warm
runs are byte-stable.

Invariants:

- **One file per experiment, last write wins**: the path is derived only
  from the experiment name (``fig-7`` and ``fig_7`` collide by design --
  registry ids never contain ``-``/``_`` ambiguity), and a store for a new
  fingerprint replaces the old entry; the cache never accumulates stale
  generations.
- **Fail-open loads**: a missing, corrupt, truncated or
  wrong-fingerprint file is a *miss*, never an error -- the experiment
  simply re-runs and overwrites it.  (The ``resultcache.load`` corrupt
  fault site exercises this path deterministically.)
- **Atomic stores**: entries are written to a temp file in the cache
  directory and ``os.replace``d into place, so a crash mid-store can
  never leave truncated JSON behind; the fail-open load remains the
  second line of defense against damage from outside the process.
- **Stored payloads are codec-encoded**: values in ``result`` are already
  JSON-safe (:mod:`repro.harness.codec`); this module never imports or
  constructs result classes itself.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.atomicio import atomic_write_text
from repro.faults import corrupt_text, fault_site


@dataclass(frozen=True)
class CachedResult:
    """One stored experiment outcome."""

    name: str
    fingerprint: str
    result: Any  # codec-encoded (JSON-safe) structure
    artifact_text: str
    artifact_dat: Optional[str] = None


class ResultCache:
    """Directory of per-experiment cached results."""

    def __init__(self, root: pathlib.Path) -> None:
        self.root = pathlib.Path(root)

    def _path(self, name: str) -> pathlib.Path:
        return self.root / f"{name.replace('-', '_')}.json"

    def load(self, name: str, fingerprint: str) -> Optional[CachedResult]:
        """The cached result for *name*, or None on miss/stale/corrupt."""
        path = self._path(name)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            payload = json.loads(corrupt_text("resultcache.load", text))
        except ValueError:
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("fingerprint") != fingerprint
        ):
            return None
        try:
            return CachedResult(
                name=payload["name"],
                fingerprint=payload["fingerprint"],
                result=payload["result"],
                artifact_text=payload["artifact_text"],
                artifact_dat=payload.get("artifact_dat"),
            )
        except KeyError:
            return None

    def store(self, entry: CachedResult) -> pathlib.Path:
        """Persist *entry*, returning its path."""
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": entry.name,
            "fingerprint": entry.fingerprint,
            "result": entry.result,
            "artifact_text": entry.artifact_text,
        }
        if entry.artifact_dat is not None:
            payload["artifact_dat"] = entry.artifact_dat
        path = self._path(entry.name)
        with fault_site("resultcache.store"):
            atomic_write_text(path, json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ) + "\n")
        return path

    def clear(self) -> int:
        """Remove every cached result; returns how many were dropped."""
        dropped = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                dropped += 1
        return dropped
