"""The benchmark's own tests: ``python3 -m pytest -q perfbench/tests``.

They run the benchmark at ``--size tiny`` and check its contract: the
declared metric names and units, the traced run's time accounting,
repeatable call counts, that timed runs never execute wrapped code,
failure accounting, per-seed output checks, the host-speed sampler's
accounting, and the refusal to run without the program.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _file:
    DECLARED = json.load(_file)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _tiny(workload, trace, seed=2020):
    """One tiny run: its result line and its record file."""
    proc = _bench("--workload", workload, "--seed", str(seed),
                  "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = os.path.join(
        BENCH, "out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(record, encoding="utf-8") as handle:
        return result, json.load(handle)


def _units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def _declared(kind):
    return {entry["name"]: entry["unit"] for entry in DECLARED[kind]}


@pytest.fixture(scope="module")
def traced_pair():
    """Two traced runs of the same seed on the workload that boots guests."""
    return [_tiny("serve_cold", 1) for _ in range(2)]


@pytest.mark.parametrize("workload",
                         ["serve_warm", "serve_cold", "paper_experiments"])
def test_smoke_run_emits_the_declared_end_to_end_metrics(workload):
    result, _ = _tiny(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == _declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_run_emits_the_declared_per_layer_metrics(traced_pair):
    result, _ = traced_pair[0]
    assert result["correct"]
    assert _units(result) == _declared("per_layer")


def test_self_times_sum_to_the_traced_wall(traced_pair):
    for result, record in traced_pair:
        values = {name: metric["value"]
                  for name, metric in result["metrics"].items()}
        self_times = [value for name, value in values.items()
                      if name.endswith(".self_s")
                      and name != "unattributed.self_s"]
        assert values["unattributed.self_s"] >= 0.0
        assert sum(self_times) + values["unattributed.self_s"] == \
            pytest.approx(values["trace.wall_s"], rel=1e-9)
        # Nested self times add up to the outermost calls' durations.
        assert sum(self_times) == pytest.approx(record["traced"]["root_s"],
                                                rel=1e-9)


def test_call_counts_repeat_across_traced_runs(traced_pair):
    def counts(result):
        return {name: metric["value"]
                for name, metric in result["metrics"].items()
                if name.endswith(".calls")}

    (first, _), (second, _) = traced_pair
    assert counts(first) == counts(second)
    assert counts(first)["simcore.guest.boot.calls"] > 0


def test_timed_runs_never_execute_wrapped_code(traced_pair):
    _, record = traced_pair[0]
    assert record["traced"]["wrapped"], "the traced child saw no wrappers"
    assert record["problems"] == []
    summary = run.summarize([{"repeats": [], "wrapped": ["traffic.dispatch"]}])
    assert not summary["correct"]


def test_a_failed_check_is_counted_as_failed_not_timed():
    good = {"wall_s": 1.0, "ok": True, "attempted": 10, "failed": 0,
            "digest": "d", "completed": 10, "problems": [],
            "experiment_walls": {}}
    bad = dict(good, wall_s=9.0, ok=False, failed=10, completed=0,
               problems=["manifest digest differs from the pinned one"])
    summary = run.summarize([{"repeats": [good, bad], "wrapped": []}])
    assert not summary["correct"]
    assert (summary["attempted"], summary["failed"]) == (20, 10)
    assert summary["timed"] == [good]


def test_outputs_must_agree_per_seed_not_across_seeds():
    def child_result(seed, digest):
        return {"seed": seed, "wrapped": [], "repeats": [
            {"wall_s": 1.0, "ok": True, "attempted": 10, "failed": 0,
             "digest": digest, "completed": 10, "problems": [],
             "experiment_walls": {}}]}

    assert run.workloads.child_seed(2020, 0) == 2020
    seeds = [run.workloads.child_seed(2020, n) for n in range(2)]
    summary = run.summarize([child_result(seeds[0], "a"),
                             child_result(seeds[1], "b")])
    assert summary["correct"] and len(summary["timed"]) == 2
    summary = run.summarize([child_result(seeds[0], "a"),
                             child_result(seeds[0], "b")])
    assert not summary["correct"]
    assert (summary["failed"], summary["timed"]) == (20, [])


def test_host_speed_takes_its_own_time_out_of_an_interval():
    host = child.HostSpeed()
    program_s, loop_s = host.interval(host.mark(), 0.01)
    # Shorter than the sampling interval: one sample is taken after it.
    assert (program_s, host.samples) == (0.01, 1) and loop_s > 0
    host.start()
    try:
        mark, start = host.mark(), time.perf_counter()
        while host.samples < mark[0] + 3:
            pass
        wall_s = time.perf_counter() - start
        program_s, loop_s = host.interval(mark, wall_s)
    finally:
        host.stop()
    assert 0 < program_s < wall_s and loop_s > 0
    assert program_s == pytest.approx(wall_s - (host.handler_s - mark[2]))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "serve_warm", "--seed", "2020",
                  "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
