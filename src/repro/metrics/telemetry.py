"""Structured run telemetry for the experiment harness.

Every harness run produces a :class:`RunTelemetry`: per-experiment wall
time, result-cache outcome and final *status* (``ok`` / ``cache_hit`` /
``failed`` / ``timed_out``, with attempt count and captured error), plus
run-level kernel-build accounting (builds performed vs. reused out of the
shared :class:`~repro.core.buildcache.KernelBuildCache`).  Serialized as
a JSON run manifest (schema_version 3) under ``benchmarks/output/`` so
runs are comparable across machines and commits -- and so a *partial*
run (experiments failed or timed out) still lands a complete manifest.
The manifest schema is documented in EXPERIMENTS.md ("Run manifest
schema") and consumed by the regression gate
(:mod:`repro.observe.regress`) and the chaos gate
(:mod:`repro.faults.chaos`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

#: Manifest format version.  2 added per-experiment ``status`` /
#: ``attempts`` / ``error`` and the top-level ``failures`` count; 3
#: dropped ``jobs`` and ``effective_jobs`` (experiments run in order).
MANIFEST_SCHEMA_VERSION = 3

#: Statuses that mean the experiment produced a result this run.
OK_STATUSES = ("ok", "cache_hit")


@dataclass
class ExperimentTelemetry:
    """What one experiment cost in this run -- and how it ended."""

    name: str
    fingerprint: str
    cache_hit: bool
    wall_ms: float
    status: str = "ok"            # "ok" | "cache_hit" | "failed" | "timed_out"
    attempts: int = 1
    error: Optional[str] = None   # "ErrorType: message" for failed/timed_out

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class RunTelemetry:
    """Aggregate telemetry for one harness run."""

    total_wall_ms: float = 0.0
    experiments: List[ExperimentTelemetry] = field(default_factory=list)
    kernel_builds_performed: int = 0
    kernel_builds_reused: int = 0
    kernel_cache_entries: int = 0

    @property
    def result_cache_hits(self) -> int:
        return sum(1 for e in self.experiments if e.cache_hit)

    @property
    def result_cache_misses(self) -> int:
        return sum(1 for e in self.experiments if not e.cache_hit)

    @property
    def result_cache_hit_rate(self) -> float:
        if not self.experiments:
            return 0.0
        return self.result_cache_hits / len(self.experiments)

    @property
    def failed_experiments(self) -> List[ExperimentTelemetry]:
        """Experiments whose final status is not ok/cache_hit."""
        return [e for e in self.experiments if not e.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "total_wall_ms": self.total_wall_ms,
            "experiments": [e.to_dict() for e in self.experiments],
            "failures": len(self.failed_experiments),
            "result_cache": {
                "hits": self.result_cache_hits,
                "misses": self.result_cache_misses,
                "hit_rate": self.result_cache_hit_rate,
            },
            "kernel_builds": {
                "performed": self.kernel_builds_performed,
                "reused": self.kernel_builds_reused,
                "cache_entries": self.kernel_cache_entries,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
