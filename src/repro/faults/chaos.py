"""The chaos harness behind ``repro-lupine chaos``.

Runs the experiment suite under a seeded fault schedule and asserts the
resilience invariants the fault plane + harness are supposed to provide:

1. **Completion.** Every selected experiment ends with a definite status
   (``ok``/``cache_hit``/``failed``/``timed_out``) and the run manifest,
   ``trace.json`` and ``metrics.json`` always land -- however many
   experiments fail.
2. **Determinism.** Two runs with the same seed produce the same
   statuses and byte-identical files: manifest, trace, metrics, result
   cache and every rendered output.
3. **Atomicity.** No stray ``*.tmp`` files survive a run: every durable
   write went through :func:`repro.core.atomicio.atomic_write_text`.

Each chaos invocation performs ``runs`` (default 2) identical sub-runs
into ``<output_dir>/run-a``, ``run-b``, ...  A sub-run resets process
state (build cache, tracer, metrics), installs a deterministic
:class:`~repro.observe.tracer.TickClock` as the host clock so wall times
are reproducible, installs the seeded schedule, then executes the suite
twice into the same directory -- a cold pass and a warm pass, so the
result-cache *load* path (and its corrupt fault) is exercised too.

The zero-fault invariant ("no plane installed => byte-identical to
today's harness") is held by the existing warm-run perf gate in
``tools/check.sh``, which regresses a fault-free run against
``benchmarks/baseline/metrics.json``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import faults
from repro.faults.plane import FaultPlane

#: Simulated/host deadline for one experiment during chaos runs (ms).
CHAOS_DEADLINE_MS = 120_000.0

#: Hang faults advance the simulated clock this far -- past the deadline.
CHAOS_HANG_MS = 180_000.0

#: Statuses a finished experiment may carry.
KNOWN_STATUSES = ("ok", "cache_hit", "failed", "timed_out")

#: The resilience counters the chaos report surfaces.
REPORT_COUNTERS = (
    "faults.injected", "harness.retries", "harness.failures",
    "harness.timeouts",
)


def default_schedule(seed: int) -> FaultPlane:
    """The stock chaos schedule: every wired site, mixed fault kinds.

    Probabilities are deliberately moderate -- most experiments should
    recover via retry, a few should end ``failed``/``timed_out`` -- and
    every decision is deterministic in ``(seed, site, scope, call)``.
    """
    from repro.vmm.monitor import MonitorError

    plane = FaultPlane(seed=seed)
    plane.configure("experiment.run", probability=0.08,
                    message="injected flaky experiment body")
    plane.configure("kbuild.build", probability=0.10,
                    message="injected transient kernel build failure")
    plane.configure("buildcache.factory", probability=0.05,
                    message="injected build-cache factory failure")
    plane.configure("resultcache.store", probability=0.05,
                    message="injected result-cache store failure")
    plane.configure("resultcache.load", probability=0.15, kind="corrupt")
    plane.configure("boot.boot", probability=0.02, kind="hang",
                    hang_ms=CHAOS_HANG_MS)
    plane.configure("vmm.check_guest", probability=0.01, transient=False,
                    exc=MonitorError,
                    message="injected driverless-guest boot crash")
    return plane


@dataclass
class ChaosRun:
    """One sub-run's observable outcome."""

    output_dir: pathlib.Path
    statuses: Dict[str, str]
    counters: Dict[str, int]
    files: Dict[str, bytes]


@dataclass
class ChaosReport:
    """Everything one chaos invocation produced."""

    seed: int
    runs: List[ChaosRun] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [f"chaos: seed={self.seed} runs={len(self.runs)}"]
        if self.runs:
            first = self.runs[0]
            by_status: Dict[str, int] = {}
            for status in first.statuses.values():
                by_status[status] = by_status.get(status, 0) + 1
            lines.append(
                "  statuses     : " + ", ".join(
                    f"{status}={count}"
                    for status, count in sorted(by_status.items())
                )
            )
            for name in REPORT_COUNTERS:
                lines.append(
                    f"  {name:<22}: {first.counters.get(name, 0)}"
                )
            abnormal = {
                name: status for name, status in first.statuses.items()
                if status not in ("ok", "cache_hit")
            }
            for name, status in sorted(abnormal.items()):
                lines.append(f"  [{status:>9}] {name}")
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        lines.append(
            "  invariants   : " + ("all hold" if self.passed else "VIOLATED")
        )
        return "\n".join(lines)


def _reset_process_state() -> None:
    """Reset every process-level memo that feeds counters or spans.

    Anything that would let sub-run B reuse work sub-run A paid for
    (kernel build cache, kconfig resolution cache, fingerprint memos)
    breaks the same-seed byte-identity invariant, so each sub-run starts
    from the same process state.
    """
    from repro.core.buildcache import BUILD_CACHE
    from repro.harness.registry import reset_fingerprint_caches
    from repro.kconfig.rescache import RESOLUTION_CACHE
    from repro.observe import reset_observability

    BUILD_CACHE.reset()
    RESOLUTION_CACHE.reset()
    reset_fingerprint_caches()
    reset_observability()


def _snapshot_files(root: pathlib.Path) -> Dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _one_run(
    seed: int,
    names: Optional[Sequence[str]],
    run_dir: pathlib.Path,
    violations: List[str],
) -> Optional[ChaosRun]:
    from repro.harness.runner import RetryPolicy, run_experiments
    from repro.observe import METRICS, TRACER
    from repro.observe.tracer import TickClock

    if run_dir.exists():
        shutil.rmtree(run_dir)
    label = run_dir.name
    policy = RetryPolicy(max_attempts=3, backoff_ms=50.0,
                         deadline_ms=CHAOS_DEADLINE_MS)
    _reset_process_state()
    saved_clock = TRACER.clock
    TRACER.clock = TickClock(step_us=1000.0)
    try:
        with faults.activated(default_schedule(seed)):
            common = dict(
                names=names, output_dir=run_dir,
                cache_dir=run_dir / "result-cache", retry_policy=policy,
            )
            run_experiments(**common)          # cold pass
            warm = run_experiments(**common)   # warm pass: exercises loads
    except Exception as error:  # noqa: BLE001 -- the invariant under test
        violations.append(
            f"{label}: harness raised {type(error).__name__}: {error}"
        )
        return None
    finally:
        TRACER.clock = saved_clock
    counters = {
        name: value
        for name, value in METRICS.to_dict()["counters"].items()
        if name in REPORT_COUNTERS
    }
    statuses = {
        entry.name: entry.status for entry in warm.telemetry.experiments
    }

    for artifact in ("run_manifest.json", "trace.json", "metrics.json"):
        path = run_dir / artifact
        if not path.is_file():
            violations.append(f"{label}: {artifact} was not written")
            continue
        try:
            json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            violations.append(f"{label}: {artifact} is not valid JSON")
    for name, status in statuses.items():
        if status not in KNOWN_STATUSES:
            violations.append(
                f"{label}: experiment {name} has indefinite "
                f"status {status!r}"
            )
    stray = [p for p in _snapshot_files(run_dir) if p.endswith(".tmp")]
    if stray:
        violations.append(f"{label}: stray temp files {stray}")
    return ChaosRun(
        output_dir=run_dir,
        statuses=statuses,
        counters=counters,
        files=_snapshot_files(run_dir),
    )


def run_chaos(
    seed: int,
    names: Optional[Sequence[str]] = None,
    output_dir: Optional[pathlib.Path] = None,
    runs: int = 2,
) -> ChaosReport:
    """Run the chaos gate (see module docstring); never raises on faults."""
    from repro.harness.runner import default_output_dir

    if output_dir is None:
        output_dir = default_output_dir() / "chaos"
    output_dir = pathlib.Path(output_dir)
    report = ChaosReport(seed=seed)
    for index in range(max(1, int(runs))):
        sub = output_dir / f"run-{chr(ord('a') + index)}"
        chaos_run = _one_run(seed, names, sub, report.violations)
        if chaos_run is not None:
            report.runs.append(chaos_run)

    if len(report.runs) >= 2:
        first = report.runs[0]
        for other in report.runs[1:]:
            if first.statuses != other.statuses:
                report.violations.append(
                    f"{other.output_dir.name}: statuses diverge from "
                    f"{first.output_dir.name} under the same seed"
                )
            for path in sorted(set(first.files) | set(other.files)):
                if first.files.get(path) != other.files.get(path):
                    report.violations.append(
                        f"artifact {path} differs between "
                        f"{first.output_dir.name} and "
                        f"{other.output_dir.name} (same seed "
                        f"{seed})"
                    )
    return report
