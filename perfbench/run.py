"""Host-time benchmark of the reproduction: serving and the paper run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve_warm --seed 2020 --seconds 45 --trace 0

Starts measured child processes (``child.py``) one after another while
the next one still fits in ``--seconds``, checks every repeat's output,
and prints the metrics BENCHMARK.json declares as one JSON object on
the last stdout line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Each child of a serving run
serves its own trace, seeded from ``--seed``; end-to-end times are
divided by a reference loop timed throughout them.  README.md
documents the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

_perf = time.perf_counter

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 120

#: End-to-end times are reported in seconds of a reference host, one on
#: which the reference loop (``child.HostSpeed``) takes this long.
REFERENCE_HOST_S = 0.0005

#: Boundaries reported with a ``.calls`` metric (README.md, layer map).
CALLS_METRICS = (
    "traffic.dispatch", "simcore.guest.serve", "simcore.guest.build",
    "simcore.guest.boot", "faults.fault_site", "simcore.use_clock",
    "syscall.invoke_batch", "syscall.cost_model", "syscall.invoke",
    "syscall.engine_build", "boot.boot", "kconfig.config_enabled",
    "kconfig.resolve", "kbuild.build", "core.unikernel_for",
    "netstack.build", "sched.scheduler", "sched.futex",
    "simcore.clock.advance", "mm.footprint",
)

#: Boundaries also reported per request served in the traced repeat.
PER_REQUEST_METRICS = (
    "faults.fault_site", "simcore.use_clock", "syscall.cost_model",
)


def reference_host_s(raw_s: float, loop_s: float) -> float:
    """*raw_s* host seconds, over which the reference loop took *loop_s*
    on average, as seconds of the reference host.

    The host's speed drifts by a third over tens of seconds, on the
    program and on the loop alike; the ratio of the two stays put.
    """
    return raw_s * REFERENCE_HOST_S / loop_s


def _run_child(args: argparse.Namespace, seed: int, repeats: int,
               trace_out: Optional[str] = None) -> Dict[str, Any]:
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--size", args.size, "--repeats", str(repeats)]
    if trace_out:
        command += ["--trace-out", trace_out]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _ratio(count: float, base: float) -> float:
    return count / base if base else 0.0


def summarize(children: List[Dict[str, Any]],
              traced: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Fold child results into correctness, operation counts and the
    repeats that may be timed (those whose output check passed)."""
    everything = [(child.get("seed"), repeat)
                  for child in children + ([traced] if traced else [])
                  for repeat in child["repeats"]]
    problems = [problem for _, repeat in everything
                for problem in repeat["problems"]]
    digests: Dict[Any, set] = {}
    for seed, repeat in everything:
        digests.setdefault(seed, set()).add(repeat["digest"])
    split = sorted(str(seed) for seed, seen in digests.items()
                   if len(seen) > 1)
    if split:
        problems.append("different outputs for one seed: " + ", ".join(split))
    wrapped = sorted({name for child in children for name in child["wrapped"]})
    if wrapped:
        problems.append("a timed run executed wrapped code: "
                        + ", ".join(wrapped))
    attempted = sum(repeat["attempted"] for _, repeat in everything)
    consistent = not split and not wrapped
    failed = (sum(repeat["failed"] for _, repeat in everything)
              if consistent else attempted)
    timed = ([repeat for child in children for repeat in child["repeats"]
              if repeat["ok"]] if consistent else [])
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "timed": timed, "problems": problems}


def _wall(repeat: Dict[str, Any]) -> float:
    return reference_host_s(repeat["wall_s"], repeat["ref_s"])


def end_to_end(children: List[Dict[str, Any]],
               timed: List[Dict[str, Any]]) -> Dict[str, Any]:
    if not timed:
        return {}
    return {
        "wall_s": _metric(statistics.median(_wall(r) for r in timed), "s"),
        "rate": _metric(statistics.median(r["completed"] / _wall(r)
                                          for r in timed), "1/s"),
        "setup_s": _metric(statistics.median(
            reference_host_s(c["setup_s"], c["setup_ref_s"])
            for c in children), "s"),
        "peak_rss_mb": _metric(statistics.median(c["peak_rss_mb"]
                                                 for c in children), "MB"),
    }


def per_layer(traced: Dict[str, Any],
              timed: List[Dict[str, Any]]) -> Dict[str, Any]:
    calls = traced["calls"]
    repeat_calls = traced["repeat_calls"]
    counters = traced["counters"]
    served = traced["requests_served"]
    metrics: Dict[str, Any] = {}
    for boundary in CALLS_METRICS:
        metrics[f"{boundary}.calls"] = _metric(calls[boundary], "count")
    for boundary, seconds in traced["self_s"].items():
        metrics[f"{boundary}.self_s"] = _metric(seconds, "s")
    metrics["simcore.eventcore.events_dispatched"] = _metric(
        counters["eventcore.events_dispatched"], "count")
    metrics["simcore.eventcore.kicks"] = _metric(
        counters["eventcore.kicks"], "count")
    metrics["simcore.eventcore.events_per_request"] = _metric(_ratio(
        traced["repeat_counters"]["eventcore.events_dispatched"], served),
        "1/req")
    for boundary in PER_REQUEST_METRICS:
        metrics[f"{boundary}.calls_per_request"] = _metric(
            _ratio(repeat_calls[boundary], served), "1/req")
    metrics["kconfig.config_enabled.calls_per_boot"] = _metric(_ratio(
        repeat_calls["kconfig.config_enabled"], repeat_calls["boot.boot"]),
        "1/boot")
    metrics["kconfig.resolve.visited_options"] = _metric(
        counters["kconfig.resolve.visited_options"], "count")
    hits = counters["kconfig.resolve.cache_hits"]
    metrics["kconfig.resolve.cache_hit_ratio"] = _metric(
        _ratio(hits, hits + counters["kconfig.resolve.cache_misses"]),
        "ratio")
    metrics["core.build_cache.hit_ratio"] = _metric(
        _ratio(counters["buildcache.hits"], calls["core.build_cache"]),
        "ratio")
    metrics["observe.spans"] = _metric(counters["observe.spans"], "count")
    for name in workloads.PAPER_EXPERIMENT_IDS:
        walls = [r["experiment_walls"][name] for r in timed
                 if name in r["experiment_walls"]]
        metrics[f"experiments.{name}.wall_s"] = _metric(
            statistics.median(walls) if walls else 0.0, "s")
    window = traced["window_s"]
    metrics["unattributed.self_s"] = _metric(
        window - sum(traced["self_s"].values()), "s")
    metrics["trace.wall_s"] = _metric(window, "s")
    # Raw seconds on both sides: the traced child does not sample the host.
    untraced = (statistics.median(r["wall_s"] for r in timed) if timed
                else 0.0)
    metrics["trace.overhead_ratio"] = _metric(
        _ratio(traced["repeats"][0]["wall_s"], untraced), "ratio")
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> Optional[str]:
    """HEAD of the checkout, when it is its own git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, src).encode("utf-8") + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_record(seed: int) -> Dict[str, Any]:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "source_digest": _source_digest(),
        "seed": seed,
    }


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="serving run seed; each child serves the trace "
                             "of a seed derived from it (paper_experiments "
                             "has none)")
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="measurement budget; children start while the "
                             "next one still fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced child and per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test inputs (not for measurement)")
    return parser.parse_args(argv)


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    # SystemExit unwinds through subprocess.run, which kills and reaps
    # the running child.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure (src/repro is missing "
              f"under {ROOT})", file=sys.stderr)
        return 2
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    for stale in glob.glob(os.path.join(workloads.OUT_DIR, "run-all-*")):
        shutil.rmtree(stale, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = workloads.WORKLOADS[args.workload]

    def seed_of(child: int) -> int:
        return (workloads.child_seed(args.seed, child) if workload.seeded
                else args.seed)

    started = _perf()
    traced = None
    trace_path = None
    if args.trace:
        trace_path = os.path.join(workloads.OUT_DIR, f"trace-{tag}.json")
        traced = _run_child(args, seed_of(0), 1, trace_out=trace_path)
    children: List[Dict[str, Any]] = []
    longest = 0.0
    while True:
        child_started = _perf()
        children.append(_run_child(args, seed_of(len(children)),
                                   workload.repeats_per_child))
        longest = max(longest, _perf() - child_started)
        if _perf() - started + longest > args.seconds:
            break

    summary = summarize(children, traced)
    timed = summary["timed"]
    references = ([child["setup_ref_s"] for child in children]
                  + [repeat["ref_s"] for child in children
                     for repeat in child["repeats"]])
    if traced is not None:
        metrics = per_layer(traced, timed)
    else:
        metrics = end_to_end(children, timed)
    record = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "host": host_record(args.seed),
        "reference_host_s": REFERENCE_HOST_S,
        "reference_ms": {
            "median": statistics.median(references) * 1e3,
            "min": min(references) * 1e3,
            "max": max(references) * 1e3,
        },
        "children": len(children),
        "child_seeds": [child["seed"] for child in children],
        "timed_repeats": len(timed),
        "raw_walls_s": [repeat["wall_s"] for repeat in timed],
        "walls_s": [_wall(repeat) for repeat in timed],
        "repeat_references_s": [repeat["ref_s"] for repeat in timed],
        "raw_setups_s": [child["setup_s"] for child in children],
        "setup_references_s": [child["setup_ref_s"] for child in children],
        "problems": summary["problems"],
        "elapsed_s": _perf() - started,
        "trace_file": trace_path,
        "traced": traced,
        "metrics": metrics,
    }
    record_path = os.path.join(workloads.OUT_DIR, f"result-{tag}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    host = record["host"]
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(timed)} timed repeats in {len(children)} children, "
          f"{summary['failed']}/{summary['attempted']} operations failed")
    print(f"host: {host['cpu_model']}, nproc {host['nproc']}, python "
          f"{host['python']}, commit {host['commit']}, source "
          f"{host['source_digest']}; reference loop "
          f"{record['reference_ms']['min']:.3f}-"
          f"{record['reference_ms']['max']:.3f} ms (times below are at "
          f"{REFERENCE_HOST_S * 1e3:g} ms)")
    for problem in summary["problems"]:
        print(f"CHECK FAILED: {problem}")
    if traced is None:
        for name in sorted(metrics):
            print(f"  {name:<12} {metrics[name]['value']:.6g} "
                  f"{metrics[name]['unit']}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
