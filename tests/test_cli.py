"""Tests for the command-line interface."""

import argparse
import json
import pathlib

import pytest

from repro.cli import BENCHES, build_parser, main

BASELINE_DIR = (
    pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "baseline"
)


class TestCli:
    def test_apps_lists_twenty(self, capsys):
        assert main(["apps"]) == 0
        output = capsys.readouterr().out
        assert "nginx" in output and "elasticsearch" in output
        assert len(output.strip().splitlines()) == 21  # header + 20

    def test_build(self, capsys):
        assert main(["build", "redis"]) == 0
        output = capsys.readouterr().out
        assert "kernel image" in output
        assert "rootfs" in output

    def test_build_variant_flag(self, capsys):
        assert main(["build", "redis", "--variant", "lupine-nokml"]) == 0
        assert "kml=no" in capsys.readouterr().out

    def test_boot_succeeds(self, capsys):
        assert main(["boot", "nginx"]) == 0
        output = capsys.readouterr().out
        assert "clock-calibration" in output
        assert "nginx: ready" in output

    def test_config(self, capsys):
        assert main(["config", "redis"]) == 0
        output = capsys.readouterr().out
        assert "+ CONFIG_EPOLL" in output

    def test_config_full_fragment(self, capsys):
        assert main(["config", "hello-world", "--full"]) == 0
        assert "CONFIG_PRINTK=y" in capsys.readouterr().out

    def test_unknown_app_errors(self):
        with pytest.raises(KeyError):
            main(["build", "doom"])

    def test_experiment_table(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "FUTEX" in capsys.readouterr().out

    def test_experiment_figure(self, capsys):
        assert main(["experiment", "fig5"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestExtendedCli:
    def test_trace(self, capsys):
        assert main(["trace", "redis"]) == 0
        output = capsys.readouterr().out
        assert "derived options:" in output
        assert "INET" in output

    def test_trace_counts(self, capsys):
        assert main(["trace", "nginx", "--counts"]) == 0
        output = capsys.readouterr().out
        assert "openat" in output

    def test_footprint(self, capsys):
        assert main(["footprint", "redis"]) == 0
        output = capsys.readouterr().out
        assert "MB minimum" in output

    def test_lmbench(self, capsys):
        assert main(["lmbench"]) == 0
        assert "null call" in capsys.readouterr().out

    def test_dmesg(self, capsys):
        assert main(["dmesg", "redis"]) == 0
        output = capsys.readouterr().out
        assert "boot complete" in output
        assert "ring 0" in output  # default variant is KML

    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        output = capsys.readouterr().out
        assert "FAIL" not in output
        assert output.count("[ok ]") == 9


class TestRunAll:
    def test_run_all_subset(self, capsys, tmp_path):
        assert main(
            ["run-all", "--only", "fig5,table3",
             "--output-dir", str(tmp_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "fig5" in output and "table3" in output
        assert "result cache" in output
        assert "kernel builds" in output
        assert (tmp_path / "run_manifest.json").exists()
        assert (tmp_path / "fig5.txt").exists()
        assert (tmp_path / "fig5.dat").exists()

    def test_run_all_accepts_jobs_1(self, capsys, tmp_path):
        # The argv perfbench's paper_experiments workload passes.
        assert main(
            ["run-all", "--jobs", "1", "--only", "fig5",
             "--output-dir", str(tmp_path)]
        ) == 0
        assert (tmp_path / "fig5.txt").exists()

    def test_run_all_rejects_other_jobs(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-all", "--jobs", "2", "--only", "fig5",
                  "--output-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert not (tmp_path / "fig5.txt").exists()

    def test_run_all_unknown_experiment(self, capsys, tmp_path):
        assert main(
            ["run-all", "--only", "fig99", "--output-dir", str(tmp_path)]
        ) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_all_emits_observability_artifacts(self, capsys, tmp_path):
        assert main(
            ["run-all", "--only", "fig5", "--output-dir", str(tmp_path)]
        ) == 0
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "metrics.json").exists()
        output = capsys.readouterr().out
        assert "trace" in output and "metrics" in output

    def test_run_all_shows_status_column(self, capsys, tmp_path):
        assert main(
            ["run-all", "--only", "fig5", "--output-dir", str(tmp_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "status" in output and "ok" in output

    def test_run_all_failure_summary_and_nonzero_exit(self, capsys,
                                                      tmp_path):
        from repro import faults
        from repro.faults import FaultPlane

        plane = FaultPlane(seed=0)
        plane.one_shot("experiment.run", transient=False, scope="fig5")
        try:
            with faults.activated(plane):
                code = main(
                    ["run-all", "--only", "fig5,table3", "--cold",
                     "--output-dir", str(tmp_path)]
                )
        finally:
            faults.deactivate()
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILURES" in captured.err
        assert "[failed] fig5" in captured.err
        # The healthy experiment and the manifest still landed.
        assert (tmp_path / "table3.txt").exists()
        assert (tmp_path / "run_manifest.json").exists()


class TestChaosCli:
    def test_chaos_has_no_jobs_option(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--jobs", "1"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_chaos_subset_invariants_hold(self, capsys, tmp_path):
        assert main(
            ["chaos", "--seed", "5", "--only", "fig4,fig5,table3",
             "--output-dir", str(tmp_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "all hold" in output
        assert "VIOLATION" not in output
        for sub in ("run-a", "run-b"):
            assert (tmp_path / sub / "run_manifest.json").exists()
            assert (tmp_path / sub / "trace.json").exists()
            assert (tmp_path / sub / "metrics.json").exists()


class TestObservabilityCli:
    def test_trace_run_renders_report(self, capsys, tmp_path):
        assert main(
            ["run-all", "--only", "fig5,fig7", "--output-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["trace", "--run", "--output-dir", str(tmp_path), "--top", "5"]
        ) == 0
        output = capsys.readouterr().out
        assert "self time" in output
        assert "phase breakdown" in output
        assert "fig7" in output

    def test_trace_without_app_defaults_to_run_report(self, capsys, tmp_path):
        main(["run-all", "--only", "fig5", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["trace", "--output-dir", str(tmp_path)]) == 0
        assert "phase breakdown" in capsys.readouterr().out

    def test_trace_run_without_artifacts_errors(self, capsys, tmp_path):
        assert main(["trace", "--run", "--output-dir", str(tmp_path)]) == 2
        assert "run-all" in capsys.readouterr().err

    def test_regress_identical_runs_pass(self, capsys, tmp_path):
        main(["run-all", "--only", "fig5", "--output-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["regress", str(tmp_path), str(tmp_path)]) == 0
        assert "0 regressed" in capsys.readouterr().out


class TestBenchCli:
    def test_bench_resolve_writes_the_pinned_document(self, capsys,
                                                      tmp_path):
        snapshot = tmp_path / "snap.json"
        assert main(["bench-resolve", "--check", "--output-dir",
                     str(tmp_path), "--snapshot", str(snapshot)]) == 0
        pinned = (BASELINE_DIR / "BENCH_resolve.json").read_bytes()
        assert (tmp_path / "BENCH_resolve.json").read_bytes() == pinned
        assert snapshot.read_bytes() == pinned
        assert "check        : ok" in capsys.readouterr().out

    def test_failing_check_exits_nonzero(self, capsys, monkeypatch,
                                         tmp_path):
        import repro.kconfig.bench as bench

        pinned = json.loads(
            (BASELINE_DIR / "BENCH_resolve.json").read_text("utf-8")
        )
        monkeypatch.setattr(bench, "run_bench", lambda: pinned)
        monkeypatch.setattr(bench, "check_result",
                            lambda result: ["warm-start ratio collapsed"])
        assert main(["bench-resolve", "--check",
                     "--output-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "CHECK FAILED : warm-start ratio collapsed" in captured.err
        assert "check        : ok" not in captured.out
        # The document still lands, so a failing gate can be inspected.
        assert (tmp_path / "BENCH_resolve.json").exists()

    def test_every_bench_is_a_subcommand_with_the_shared_flags(self):
        parser = build_parser()
        commands = next(
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(BENCHES) <= set(commands)
        for name, bench in BENCHES.items():
            flags = {
                flag for action in commands[name]._actions
                for flag in action.option_strings
            } - {"-h", "--help"}
            assert flags == {"--check", "--snapshot", "--output-dir"}, name
            assert bench.result == f"BENCH_{name[len('bench-'):]}.json"
        assert "chaos-serve" not in commands
