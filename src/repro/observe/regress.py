"""The perf regression gate: diff two runs' metrics + manifests.

``python -m repro.observe.regress BASELINE CURRENT`` compares two harness
runs and exits nonzero when the current run regressed past a threshold.
``BASELINE``/``CURRENT`` are run output directories (containing
``metrics.json`` and optionally ``run_manifest.json``) or paths to the
``metrics.json`` files themselves.

What gates (threshold ``t``, default 0.10; all comparisons are strict
``>``, so a run **exactly at** the threshold passes):

- **cost counters** (``*.misses``, ``*.performed``,
  ``kconfig.resolutions``, the resolver work counters
  ``kconfig.resolve.visited_options*`` / ``kconfig.expr.evals*``, and
  the simulator's hot-loop counters ``eventcore.events_dispatched*`` /
  ``eventcore.kicks*`` / ``boot.boots*``, bare or per benchmark
  section): fail when current > baseline * (1 + t).
  These are deterministic, so they gate across machines -- a jump means
  a cache stopped hitting or a hot path started re-doing work (a 2x
  growth in dispatched events, say).
- **digests** (the metrics document's ``digests`` section: manifest
  digest identities published by the benchmarks): fail on **any**
  inequality, and when a baseline digest is missing from the current
  run.  A digest is not a quantity -- a one-bit drift means the
  simulated behaviour changed, so the threshold never applies -- and a
  benchmark that stops emitting a pinned scenario must be re-pinned on
  purpose, not pass silently.
- **timings** (manifest ``total_wall_ms`` and per-experiment
  ``wall_ms``): fail when current > baseline * (1 + t) *and* the
  absolute slowdown exceeds ``--min-ms`` (default 5 ms, absorbing
  scheduler noise on sub-millisecond experiments).  Wall time is
  machine-dependent: gate timings only between runs on comparable
  hardware, or pass ``--no-timings`` (as CI does against the checked-in
  baseline).

Counters that *shrink* and non-cost counters are reported informationally
but never fail the gate.  Counters and timings present on only one side
are skipped, as are digests present only in the current run: the
baseline defines the contract, so adding instrumentation never breaks an
old baseline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.observe.export import METRICS_NAME

MANIFEST_NAME = "run_manifest.json"

#: What a digest delta reports for a pinned digest the current run lacks.
MISSING = "<missing>"

#: Counter name patterns whose *growth* is a cost regression.
COST_COUNTER_SUFFIXES: Tuple[str, ...] = (".misses", ".performed")
COST_COUNTER_NAMES: Tuple[str, ...] = ()
#: Prefix-matched cost counters, both the bare process-wide names and
#: the per-section variants the benchmarks emit (e.g.
#: ``kconfig.resolve.visited_options.warm_delta``,
#: ``eventcore.events_dispatched.serve_fixed_pool``): the resolver work
#: counters, and the hot-loop counters of the event core and the boot
#: simulator.
COST_COUNTER_PREFIXES: Tuple[str, ...] = (
    "kconfig.resolutions",
    "kconfig.resolve.visited_options",
    "kconfig.resolve.cache_misses",
    "kconfig.expr.evals",
    "eventcore.events_dispatched",
    "eventcore.kicks",
    "boot.boots",
)


def is_cost_counter(name: str) -> bool:
    return (
        name.endswith(COST_COUNTER_SUFFIXES)
        or name in COST_COUNTER_NAMES
        or name.startswith(COST_COUNTER_PREFIXES)
    )


@dataclass
class Delta:
    """One compared quantity (or identity, for digests)."""

    kind: str          # "counter" | "timing" | "digest"
    name: str
    baseline: Any      # float for counters/timings, str for digests
    current: Any
    regression: bool

    @property
    def ratio(self) -> float:
        if self.kind == "digest":
            return 1.0 if self.baseline == self.current else float("inf")
        if self.baseline == 0:
            return float("inf") if self.current > 0 else 1.0
        return self.current / self.baseline


@dataclass
class RegressionReport:
    """Everything one comparison produced."""

    threshold: float
    deltas: List[Delta] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [delta for delta in self.deltas if delta.regression]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"regression gate: threshold {self.threshold:.0%} "
            f"({len(self.deltas)} compared, "
            f"{len(self.regressions)} regressed)"
        ]
        for delta in self.deltas:
            flag = "REGRESSED" if delta.regression else "ok"
            if delta.kind == "digest":
                outcome = ("match" if delta.baseline == delta.current
                           else f"{delta.baseline} -> {delta.current}")
                lines.append(
                    f"  [{flag:>9}] {delta.kind:<7} {delta.name}: {outcome}"
                )
                continue
            lines.append(
                f"  [{flag:>9}] {delta.kind:<7} {delta.name}: "
                f"{delta.baseline:g} -> {delta.current:g} "
                f"(x{delta.ratio:.3f})"
            )
        return "\n".join(lines)


def _exceeds(baseline: float, current: float, threshold: float) -> bool:
    """Strict comparison: exactly-at-threshold is NOT a regression."""
    return current > baseline * (1.0 + threshold)


def compare_runs(
    baseline_metrics: Dict[str, Any],
    current_metrics: Dict[str, Any],
    baseline_manifest: Optional[Dict[str, Any]] = None,
    current_manifest: Optional[Dict[str, Any]] = None,
    threshold: float = 0.10,
    min_ms: float = 5.0,
    timings: bool = True,
) -> RegressionReport:
    """Compare two runs (see module docstring for the gate semantics)."""
    report = RegressionReport(threshold=threshold)

    baseline_counters = baseline_metrics.get("counters", {})
    current_counters = current_metrics.get("counters", {})
    for name in sorted(baseline_counters):
        if name not in current_counters:
            continue
        base, cur = baseline_counters[name], current_counters[name]
        regressed = is_cost_counter(name) and _exceeds(base, cur, threshold)
        report.deltas.append(
            Delta("counter", name, float(base), float(cur), regressed)
        )

    # Digest identities: exact equality, no threshold.  The baseline is
    # the contract, so a pinned digest the current run no longer emits
    # regresses; one only the current run has is not compared.
    baseline_digests = baseline_metrics.get("digests", {})
    current_digests = current_metrics.get("digests", {})
    for name in sorted(baseline_digests):
        base_digest = str(baseline_digests[name])
        cur_digest = str(current_digests.get(name, MISSING))
        report.deltas.append(
            Delta("digest", name, base_digest, cur_digest,
                  base_digest != cur_digest)
        )

    if timings and baseline_manifest and current_manifest:
        base_total = float(baseline_manifest.get("total_wall_ms", 0.0))
        cur_total = float(current_manifest.get("total_wall_ms", 0.0))
        report.deltas.append(
            Delta(
                "timing", "total_wall_ms", base_total, cur_total,
                _exceeds(base_total, cur_total, threshold)
                and (cur_total - base_total) > min_ms,
            )
        )
        base_by_name = {
            entry["name"]: float(entry.get("wall_ms", 0.0))
            for entry in baseline_manifest.get("experiments", [])
        }
        for entry in current_manifest.get("experiments", []):
            name = entry["name"]
            if name not in base_by_name:
                continue
            base, cur = base_by_name[name], float(entry.get("wall_ms", 0.0))
            report.deltas.append(
                Delta(
                    "timing", f"experiment:{name}", base, cur,
                    _exceeds(base, cur, threshold) and (cur - base) > min_ms,
                )
            )
    return report


def _load_run(path: pathlib.Path) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """``(metrics, manifest-or-None)`` for a run directory or metrics file."""
    path = pathlib.Path(path)
    if path.is_dir():
        metrics_path = path / METRICS_NAME
        manifest_path = path / MANIFEST_NAME
    else:
        metrics_path = path
        manifest_path = path.parent / MANIFEST_NAME
    metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
    manifest = None
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    return metrics, manifest


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.observe.regress",
        description="diff two harness runs; exit 1 past the threshold",
    )
    parser.add_argument("baseline",
                        help="baseline run dir or metrics.json path")
    parser.add_argument("current",
                        help="current run dir or metrics.json path")
    parser.add_argument("--threshold", type=float, default=0.10,
                        metavar="FRACTION",
                        help="allowed relative growth (default 0.10 = 10%%)")
    parser.add_argument("--min-ms", type=float, default=5.0, metavar="MS",
                        help="ignore absolute timing deltas below MS")
    parser.add_argument("--no-timings", action="store_true",
                        help="gate only deterministic counters "
                             "(cross-machine comparisons)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        baseline_metrics, baseline_manifest = _load_run(args.baseline)
        current_metrics, current_manifest = _load_run(args.current)
    except (OSError, ValueError) as error:
        print(f"regress: cannot load runs: {error}", file=sys.stderr)
        return 2
    report = compare_runs(
        baseline_metrics,
        current_metrics,
        baseline_manifest=baseline_manifest,
        current_manifest=current_manifest,
        threshold=args.threshold,
        min_ms=args.min_ms,
        timings=not args.no_timings,
    )
    print(report.render())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
