"""The benchmark's workloads: set-up, one timed repeat, and its check.

A child process (``child.py``) drives one workload object:

- ``load()`` imports the program's public entry points;
- ``prepare(size, seed)`` does the rest of set-up: the Linux tree parse
  and its resolution index and, for serving, the general kernel's first
  resolve and build, which a fresh ``fleet-serve`` also pays once;
- ``run_once()`` is the timed operation;
- ``check(result)`` verifies the output and counts the operations
  attempted and failed.  A repeat that fails its check fails all of its
  operations.

Importing this module does not import the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
PINS_PATH = os.path.join(HERE, "pins.json")

#: The serving seed the pinned manifest digests were taken at.
DEFAULT_SEED = 2020

#: Requests per serving repeat.  At the default seed the pinned digests
#: fix every statistic a repeat produces, cold starts included.
SERVE_REQUESTS = {"full": 20_000, "tiny": 500}

#: Spacing of the per-child serving seeds derived from one run seed.
CHILD_SEED_STRIDE = 1_000_003


def child_seed(seed: int, child: int) -> int:
    """The trace seed child number *child* of a serving run uses.

    The work of one trace varies with its seed (scale-to-zero cold boots
    range over about a third between seeds), so each child of a run
    serves its own trace and the run's median spans several of them.
    Child 0 keeps the run seed, so at the default seed it serves the
    pinned trace.
    """
    return seed + CHILD_SEED_STRIDE * child


#: The registry ids ``run-all`` runs, in registry order.
PAPER_EXPERIMENT_IDS = (
    "fig3", "fig4", "table1", "table3", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "table4", "fig11", "fig12", "sec5", "table5",
    "ext-coldstart", "ext-derived", "ext-security",
)

#: Experiments per paper_experiments repeat, by size.
PAPER_ONLY = {"full": PAPER_EXPERIMENT_IDS, "tiny": ("fig3", "table1")}


def load_pins() -> Dict[str, Any]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@dataclass
class Check:
    """The outcome of one repeat's output check."""

    ok: bool
    attempted: int
    failed: int
    #: Identity of the output; the repeats of one run that share a seed
    #: must agree on it.
    digest: str
    #: Operations completed: requests served, or experiments run.
    completed: int
    problems: List[str] = field(default_factory=list)
    #: Per-experiment host seconds from the run manifest (paper run).
    experiment_walls: Dict[str, float] = field(default_factory=dict)


def _verdict(attempted: int, completed: int, digest: str,
             problems: List[str], **extra: Any) -> Check:
    ok = not problems
    return Check(ok=ok, attempted=attempted, failed=0 if ok else attempted,
                 digest=digest, completed=completed if ok else 0,
                 problems=problems, **extra)


class Serving:
    """``run_serving`` on the canonical diurnal trace, general kernel."""

    serves_requests = True
    seeded = True

    def __init__(self, name: str, policy: str, repeats_per_child: int):
        self.name = name
        self.policy = policy
        self.repeats_per_child = repeats_per_child
        self.spec: Any = None
        self.pin: Optional[str] = None

    def load(self) -> None:
        import repro.traffic

        self._traffic = repro.traffic

    def prepare(self, size: str, seed: int) -> None:
        from repro.apps.registry import get_app
        from repro.core.orchestrator import KernelOrchestrator, KernelPolicy
        from repro.kconfig.database import build_linux_tree
        from repro.traffic.bench import canonical_trace

        traffic = self._traffic
        build_linux_tree()
        orchestrator = KernelOrchestrator(policy=KernelPolicy.GENERAL)
        for app in traffic.curated_apps():
            orchestrator.unikernel_for(get_app(app))
        self.spec = traffic.ServeSpec(
            trace=canonical_trace(SERVE_REQUESTS[size]),
            policy=traffic.named_policy(self.policy),
            seed=seed,
        )
        self.pin = (load_pins()[self.name][size]
                    if seed == DEFAULT_SEED else None)

    def run_once(self) -> Any:
        return self._traffic.run_serving(self.spec)

    def check(self, report: Any) -> Check:
        expected = self.spec.trace.requests
        problems = []
        if report.arrivals != expected:
            problems.append(
                f"{report.arrivals} arrivals, the trace has {expected}")
        settled = report.served + report.failed + report.shed + report.dropped
        if settled != report.arrivals:
            problems.append(f"request conservation broke: {settled} settled "
                            f"of {report.arrivals} arrivals")
        if report.failed or report.shed or report.dropped:
            problems.append(f"failed {report.failed}, shed {report.shed}, "
                            f"dropped {report.dropped}")
        digest = report.manifest_digest
        if self.pin is not None and digest != self.pin:
            problems.append(f"manifest digest {digest[:16]} differs from "
                            f"the pinned {self.pin[:16]}")
        return _verdict(expected, report.served, digest, problems)


class PaperExperiments:
    """``run-all --cold --jobs 1`` into a fresh output directory."""

    name = "paper_experiments"
    serves_requests = False
    seeded = False
    repeats_per_child = 1

    def load(self) -> None:
        from repro import cli

        self._main = cli.main

    def prepare(self, size: str, seed: int) -> None:
        from repro.harness.registry import all_experiments
        from repro.kconfig.database import build_linux_tree

        build_linux_tree()
        registered = tuple(all_experiments())
        if registered != PAPER_EXPERIMENT_IDS:
            raise RuntimeError(f"registered experiments {registered} are "
                               f"not the benchmarked {PAPER_EXPERIMENT_IDS}")
        self.only = PAPER_ONLY[size]
        self.full = size == "full"
        self.pins = load_pins()[self.name][size]
        os.makedirs(OUT_DIR, exist_ok=True)

    def run_once(self) -> Tuple[int, str]:
        out = tempfile.mkdtemp(prefix="run-all-", dir=OUT_DIR)
        argv = ["run-all", "--cold", "--jobs", "1", "--output-dir", out]
        if not self.full:
            argv += ["--only", ",".join(self.only)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self._main(argv)
        return code, out

    def check(self, result: Tuple[int, str]) -> Check:
        code, out = result
        try:
            with open(os.path.join(out, "run_manifest.json"),
                      encoding="utf-8") as handle:
                manifest = json.load(handle)
            artifacts = {
                name: _sha256(os.path.join(out, name))
                for name in sorted(os.listdir(out))
                if name.endswith((".txt", ".dat"))
            }
        finally:
            shutil.rmtree(out, ignore_errors=True)
        entries = {entry["name"]: entry for entry in manifest["experiments"]}
        problems = []
        if code != 0:
            problems.append(f"run-all exited with {code}")
        not_ok = [name for name in self.only
                  if entries.get(name, {}).get("status") != "ok"]
        if not_ok:
            problems.append("not ok: " + ", ".join(not_ok))
        differing = sorted(
            name for name in set(artifacts) | set(self.pins)
            if artifacts.get(name) != self.pins.get(name)
        )
        if differing:
            problems.append("artifacts differ from the pinned hashes: "
                            + ", ".join(differing))
        digest = hashlib.sha256(
            json.dumps(artifacts, sort_keys=True).encode("utf-8")
        ).hexdigest()
        walls = {name: entries[name]["wall_ms"] / 1e3
                 for name in self.only if name in entries}
        return _verdict(len(self.only), len(self.only) - len(not_ok), digest,
                        problems, experiment_walls=walls)


WORKLOADS: Dict[str, Any] = {
    "serve_warm": Serving("serve_warm", "fixed-pool", repeats_per_child=2),
    "serve_cold": Serving("serve_cold", "scale-to-zero", repeats_per_child=1),
    "paper_experiments": PaperExperiments(),
}
