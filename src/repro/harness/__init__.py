"""The experiment harness.

One registry + runner for every paper reproduction: experiments are
discovered behind a uniform :class:`Experiment` protocol, executed in
order with a shared kernel build cache, cached on disk by inputs
fingerprint, and reported through a JSON run manifest.

    from repro.harness import run_experiments

    run = run_experiments()                 # all experiments
    run.results["fig7"]                     # structured results
    run.telemetry.result_cache_hit_rate     # run telemetry

CLI equivalent: ``python -m repro.cli run-all``.

Package-level invariants (each submodule documents its own):

- results/artifacts land in registry order (:mod:`.runner`);
- the result cache is keyed on the experiment's transitive-source
  fingerprint, never on time or environment (:mod:`.registry`,
  :mod:`.resultcache`);
- cached results round-trip through the JSON codec so warm and cold runs
  are indistinguishable to consumers (:mod:`.codec`);
- every run's observability artifacts (``trace.json``/``metrics.json``)
  are written next to the run manifest (:mod:`repro.observe`).
"""

from repro.harness.registry import (
    Artifact,
    Experiment,
    all_experiments,
    get_experiment,
    module_fingerprint,
)
from repro.harness.resultcache import CachedResult, ResultCache
from repro.harness.runner import (
    MANIFEST_NAME,
    HarnessRun,
    default_cache_dir,
    default_output_dir,
    run_experiments,
)

__all__ = [
    "Artifact",
    "CachedResult",
    "Experiment",
    "HarnessRun",
    "MANIFEST_NAME",
    "ResultCache",
    "all_experiments",
    "default_cache_dir",
    "default_output_dir",
    "get_experiment",
    "module_fingerprint",
    "run_experiments",
]
