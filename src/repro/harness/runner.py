"""The experiment runner: in-order execution, caching, failure isolation.

``run_experiments`` executes a set of registered experiments:

- experiments run one after another in the calling thread, in selection
  order (the work is CPU-bound pure Python, which threads cannot speed
  up);
- kernel builds inside experiments all hit the process-wide
  :data:`~repro.core.buildcache.BUILD_CACHE`, so the fleet of variants the
  paper's evaluation needs is built once per process, not once per figure;
- finished results land in an on-disk :class:`ResultCache` keyed on each
  experiment's inputs fingerprint -- a warm re-run with unchanged inputs
  executes nothing and reproduces byte-identical artifacts;
- an experiment that raises is *contained*: its exception becomes a
  structured outcome (``status="failed"``, the error text in the
  manifest), transient faults are retried under a bounded
  :class:`RetryPolicy` with deterministic backoff on the simulated clock,
  an injected hang or a blown per-experiment deadline is
  ``status="timed_out"`` -- and every other experiment's result still
  lands;
- every run emits a JSON run manifest (``run_manifest.json``,
  schema_version 3: per-experiment ``status``/``attempts``/``error``)
  plus the observability artifacts ``trace.json`` and ``metrics.json``
  -- *always*, even when experiments fail: a partial run lands a
  complete manifest.

Invariants:

- **Selection order.** Results, artifacts and manifest entries land in
  *selection* order (registry order for named runs), the order the
  experiments ran in.
- **Warm-run purity.** A result-cache hit must not execute experiment
  code, perform kernel builds, or consult the kernel build cache; it only
  decodes the stored result.  (``test_harness.py`` pins this.)
- **Codec normalization.** Cold results pass through
  ``decode(encode(...))`` before being returned, and ``decode`` rebuilds
  dicts in sorted key order (the order the cache's ``sort_keys`` JSON
  stores), so cold and warm runs hand consumers identical objects, down
  to the order their dicts iterate in.
- **Span containment.** Every span the runner emits for one experiment is
  a descendant of that experiment's ``experiment:<name>`` span; the trace
  exporter's per-experiment breakdown depends on this.
- **Failure isolation.** No exception raised inside one experiment's
  attempt loop escapes ``_execute_one``: selection errors (unknown
  names) still raise, but once execution starts, every experiment ends
  with a definite status and the manifest/trace/metrics always land.
- **Fault-free transparency.** With no fault plane installed and no
  failures, the emitted span structure, metrics and outputs are
  identical to a runner without the fault machinery: retry/status span
  attributes appear only on retried or failed experiments.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.core.atomicio import atomic_write_text
from repro.core.buildcache import BUILD_CACHE
from repro.faults import FaultHang
from repro.harness.codec import decode, encode
from repro.harness.registry import Experiment, all_experiments
from repro.harness.resultcache import CachedResult, ResultCache
from repro.metrics.telemetry import (
    ExperimentTelemetry,
    OK_STATUSES,
    RunTelemetry,
)
from repro.observe import METRICS, TRACER, span
from repro.simcore.context import current_clock
from repro.observe.export import write_run_artifacts
from repro.observe.metrics import DEFAULT_MS_BUCKETS

#: Manifest filename inside the output directory.
MANIFEST_NAME = "run_manifest.json"


def _now_ms() -> float:
    """Wall time off the tracer's host clock (perf_counter by default).

    Going through ``TRACER.clock`` instead of ``time.perf_counter`` lets
    the chaos harness install a deterministic :class:`TickClock` and get
    byte-identical manifests/metrics out of two identical runs.
    """
    return TRACER.clock.now_us() / 1000.0


def default_output_dir() -> pathlib.Path:
    """``<repo>/benchmarks/output``, anchored on the installed package."""
    import repro

    return (
        pathlib.Path(repro.__file__).resolve().parents[2]
        / "benchmarks" / "output"
    )


def default_cache_dir(output_dir: Optional[pathlib.Path] = None) -> pathlib.Path:
    """The result cache lives next to the rendered outputs."""
    base = output_dir if output_dir is not None else default_output_dir()
    return pathlib.Path(base) / "result-cache"


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner handles a failing experiment attempt.

    Only errors carrying a truthy ``transient`` attribute (injected
    transient faults -- see :mod:`repro.faults`) are retried, up to
    ``max_attempts`` total attempts with a deterministic linear backoff
    of ``backoff_ms * attempt`` advanced on the *simulated* clock (no
    host sleeping; chaos runs stay fast and reproducible).  Any other
    exception is persistent and fails on the first attempt.

    ``deadline_ms`` bounds one experiment: when an attempt ends (by
    failure) with more than ``deadline_ms`` elapsed on either clock
    since the experiment started, the experiment is marked
    ``timed_out`` and not retried.  An injected :class:`FaultHang`
    (which advances the simulated clock past any useful deadline) is
    classified ``timed_out`` directly.  A genuinely hung experiment
    cannot be preempted from Python -- the deadline is judged at attempt
    boundaries, which the simulators always reach.
    """

    max_attempts: int = 3
    backoff_ms: float = 50.0
    deadline_ms: Optional[float] = None


#: The default policy: bounded retries for transient faults, no deadline.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class HarnessRun:
    """Everything one ``run_experiments`` call produced."""

    results: Dict[str, Any] = field(default_factory=dict)
    artifacts: Dict[str, str] = field(default_factory=dict)
    telemetry: RunTelemetry = field(default_factory=RunTelemetry)
    output_paths: Dict[str, pathlib.Path] = field(default_factory=dict)
    manifest_path: Optional[pathlib.Path] = None
    trace_path: Optional[pathlib.Path] = None
    metrics_path: Optional[pathlib.Path] = None

    @property
    def failures(self) -> Dict[str, str]:
        """name -> error text for experiments that did not end ok."""
        return {
            entry.name: entry.error or entry.status
            for entry in self.telemetry.experiments if not entry.ok
        }

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class _Outcome:
    telemetry: ExperimentTelemetry
    result: Any = None
    artifact_text: Optional[str] = None
    artifact_dat: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.telemetry.ok


def _attempt_one(
    experiment: Experiment,
    cache: Optional[ResultCache],
    force: bool,
    record: Any,
) -> Tuple[bool, str, Any, str, Optional[str]]:
    """One attempt: ``(cache_hit, fingerprint, result, text, dat)``."""
    with span("fingerprint", category="harness"):
        fingerprint = experiment.fingerprint()
    if cache is not None and not force:
        with span("cache-lookup", category="harness"):
            entry = cache.load(experiment.name, fingerprint)
        if entry is not None:
            METRICS.counter("harness.result_cache.hits").inc()
            record.set_attr("cache_hit", True)
            return (
                True, fingerprint, decode(entry.result),
                entry.artifact_text, entry.artifact_dat,
            )
    METRICS.counter("harness.result_cache.misses").inc()
    record.set_attr("cache_hit", False)
    with span("execute", category="harness"):
        with faults.fault_site("experiment.run"):
            result = experiment.run()
    with span("render-artifact", category="harness"):
        artifact = experiment.artifact()
        dat_text: Optional[str] = None
        if artifact.figure is not None:
            from repro.metrics.dataexport import figure_to_dat

            dat_text = figure_to_dat(artifact.figure)
    with span("encode", category="harness"):
        encoded = encode(result)
    if cache is not None:
        with span("cache-store", category="harness"):
            cache.store(
                CachedResult(
                    name=experiment.name,
                    fingerprint=fingerprint,
                    result=encoded,
                    artifact_text=artifact.text,
                    artifact_dat=dat_text,
                )
            )
    # Normalize through the codec so cold and warm runs hand consumers
    # byte-for-byte identical structures.
    return False, fingerprint, decode(encoded), artifact.text, dat_text


def _execute_one(
    experiment: Experiment,
    cache: Optional[ResultCache],
    force: bool,
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
) -> _Outcome:
    """Run one experiment under the retry policy; never raises.

    Every path ends with a definite status -- ``ok``/``cache_hit`` with a
    result, or ``failed``/``timed_out`` with the error captured in the
    telemetry entry.
    """
    started = _now_ms()
    fingerprint = ""
    cache_hit = False
    result: Any = None
    artifact_text: Optional[str] = None
    artifact_dat: Optional[str] = None
    status = "ok"
    error_text: Optional[str] = None
    attempts = 0
    with span(f"experiment:{experiment.name}", category="harness",
              experiment=experiment.name) as record:
        with faults.experiment_scope(experiment.name):
            sim_started = current_clock().now_ms
            while True:
                attempts += 1
                try:
                    (cache_hit, fingerprint, result, artifact_text,
                     artifact_dat) = _attempt_one(
                        experiment, cache, force, record)
                    status = "cache_hit" if cache_hit else "ok"
                    error_text = None
                    break
                except Exception as error:  # noqa: BLE001 -- failure isolation
                    error_text = f"{type(error).__name__}: {error}"
                    over_deadline = policy.deadline_ms is not None and (
                        (current_clock().now_ms - sim_started)
                        > policy.deadline_ms
                        or (_now_ms() - started) > policy.deadline_ms
                    )
                    if isinstance(error, FaultHang) or over_deadline:
                        status = "timed_out"
                        METRICS.counter("harness.timeouts").inc()
                        break
                    transient = bool(getattr(error, "transient", False))
                    if transient and attempts < policy.max_attempts:
                        backoff_ms = policy.backoff_ms * attempts
                        with span("harness.retry", category="harness",
                                  attempt=attempts, backoff_ms=backoff_ms):
                            current_clock().advance_ms(backoff_ms)
                        METRICS.counter("harness.retries").inc()
                        continue
                    status = "failed"
                    METRICS.counter("harness.failures").inc()
                    break
        # Keep fault-free spans byte-identical to the pre-fault-plane
        # runner: status/attempt attributes only on abnormal outcomes.
        if attempts > 1:
            record.set_attr("attempts", attempts)
        if status not in OK_STATUSES:
            record.set_attr("status", status)
            record.set_attr("error", error_text)
    wall_ms = _now_ms() - started
    METRICS.histogram(
        "harness.experiment.wall_ms", DEFAULT_MS_BUCKETS
    ).observe(wall_ms)
    return _Outcome(
        telemetry=ExperimentTelemetry(
            name=experiment.name,
            fingerprint=fingerprint,
            cache_hit=cache_hit,
            wall_ms=wall_ms,
            status=status,
            attempts=attempts,
            error=error_text,
        ),
        result=result,
        artifact_text=artifact_text,
        artifact_dat=artifact_dat,
    )


def run_experiments(
    names: Optional[Sequence[str]] = None,
    experiments: Optional[Sequence[Experiment]] = None,
    output_dir: Optional[pathlib.Path] = None,
    cache_dir: Optional[pathlib.Path] = None,
    force: bool = False,
    write_outputs: bool = True,
    use_result_cache: bool = True,
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
) -> HarnessRun:
    """Run experiments through the harness (see module docstring).

    ``names`` selects registered experiments (None => all, registry
    order); ``experiments`` bypasses the registry entirely (tests,
    synthetic experiments).  ``force`` ignores cached results but still
    refreshes the cache; ``use_result_cache=False`` disables the result
    cache in both directions.  ``retry_policy`` bounds per-experiment
    attempts/deadline; failures never abort the run -- inspect
    ``HarnessRun.failures`` / the manifest ``status`` fields.
    """
    if experiments is None:
        registry = all_experiments()
        if names is None:
            selected = list(registry.values())
        else:
            unknown = [name for name in names if name not in registry]
            if unknown:
                raise KeyError(
                    f"unknown experiments {unknown!r}; known: "
                    f"{', '.join(registry)}"
                )
            selected = [registry[name] for name in names]
    else:
        selected = list(experiments)

    if output_dir is None:
        output_dir = default_output_dir()
    output_dir = pathlib.Path(output_dir)
    cache: Optional[ResultCache] = None
    if use_result_cache:
        if cache_dir is None:
            cache_dir = default_cache_dir(output_dir)
        cache = ResultCache(pathlib.Path(cache_dir))

    # Pre-register the cost and resilience counters so a clean run reports
    # them as explicit zeros rather than omitting them: the regression
    # gate compares baseline-side counters, and "0 misses" / "0 failures"
    # is the very claim a baseline exists to enforce.
    for counter_name in (
        "harness.result_cache.hits", "harness.result_cache.misses",
        "harness.retries", "harness.failures", "harness.timeouts",
        "harness.fingerprint_errors", "faults.injected",
        "buildcache.hits", "buildcache.misses",
        "kbuild.builds", "kconfig.resolutions",
        "kconfig.resolve.cache_hits", "kconfig.resolve.cache_misses",
        "kconfig.resolve.visited_options", "kconfig.expr.evals",
    ):
        METRICS.counter(counter_name)
    build_stats_before = BUILD_CACHE.stats()
    trace_mark = TRACER.mark()
    run_started = _now_ms()

    with span("harness.run", category="harness", experiments=len(selected)):
        outcomes = [
            _execute_one(e, cache, force, retry_policy) for e in selected
        ]

    build_stats_after = BUILD_CACHE.stats()
    telemetry = RunTelemetry(
        total_wall_ms=_now_ms() - run_started,
        experiments=[outcome.telemetry for outcome in outcomes],
        kernel_builds_performed=(
            build_stats_after.misses - build_stats_before.misses
        ),
        kernel_builds_reused=(
            build_stats_after.hits - build_stats_before.hits
        ),
        kernel_cache_entries=build_stats_after.entries,
    )

    run = HarnessRun(telemetry=telemetry)
    for experiment, outcome in zip(selected, outcomes):
        if not outcome.ok:
            continue
        run.results[experiment.name] = outcome.result
        run.artifacts[experiment.name] = outcome.artifact_text or ""
        if write_outputs:
            output_dir.mkdir(parents=True, exist_ok=True)
            path = output_dir / f"{experiment.output_stem}.txt"
            atomic_write_text(path, (outcome.artifact_text or "") + "\n")
            run.output_paths[experiment.name] = path
            if outcome.artifact_dat is not None:
                atomic_write_text(
                    output_dir / f"{experiment.output_stem}.dat",
                    outcome.artifact_dat,
                )
    if write_outputs:
        output_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = output_dir / MANIFEST_NAME
        atomic_write_text(manifest_path, telemetry.to_json())
        run.manifest_path = manifest_path
        artifact_paths = write_run_artifacts(
            output_dir, TRACER.records_since(trace_mark), METRICS
        )
        run.trace_path = artifact_paths["trace"]
        run.metrics_path = artifact_paths["metrics"]
    return run
