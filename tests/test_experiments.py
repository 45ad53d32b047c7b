"""Paper-shape tests: every experiment must reproduce the paper's findings.

These are the repository's acceptance tests: for each table/figure they
assert the qualitative shape (who wins, by roughly what factor, where
crossovers fall), not exact absolute numbers.
"""

import pytest

from repro.experiments import (
    fig3_config_options,
    fig4_breakdown,
    fig5_growth,
    fig6_image_size,
    fig7_boot_time,
    fig8_memory,
    fig9_syscalls,
    fig10_kml,
    fig11_control,
    fig12_ctxsw,
    sec5_smp,
    table1_syscall_options,
    table3_top20,
    table4_apps,
    table5_lmbench,
)


class TestFig3:
    def test_totals(self):
        results = fig3_config_options.run()
        assert sum(results["total"].values()) == 15953
        assert sum(results["microvm"].values()) == 833
        assert sum(results["lupine-base"].values()) == 283

    def test_drivers_dominate_total_but_not_microvm(self):
        results = fig3_config_options.run()
        assert results["total"]["drivers"] > 8000
        assert results["microvm"]["drivers"] < 200

    def test_series_nest(self):
        results = fig3_config_options.run()
        for directory in results["total"]:
            assert (results["lupine-base"].get(directory, 0)
                    <= results["microvm"].get(directory, 0)
                    <= results["total"][directory])

    def test_table_renders(self):
        from repro.metrics.reporting import render_table

        text = render_table(
            fig3_config_options.table(fig3_config_options.run())
        )
        assert "drivers" in text and "TOTAL" in text


class TestFig4:
    def test_paper_arithmetic(self):
        results = fig4_breakdown.run()
        assert results["microvm"] == 833
        assert results["removed"] == 550
        assert (results["app"], results["mp"], results["hw"]) == (311, 89, 150)
        assert results["lupine-base"] == 283

    def test_subcategories_sum_to_categories(self):
        results = fig4_breakdown.run()
        subs = fig4_breakdown.subcategories()
        for category in ("app", "mp", "hw"):
            total = sum(v for k, v in subs.items()
                        if k.startswith(f"{category}:"))
            assert total == results[category]


class TestTable1:
    def test_twelve_rows(self):
        assert len(table1_syscall_options.run()) == 12

    def test_futex_row(self):
        rows = table1_syscall_options.run()
        assert set(rows["FUTEX"]) == {"futex", "set_robust_list",
                                      "get_robust_list"}


class TestTable3AndFig5:
    def test_counts_via_manifest_pipeline(self):
        counts = table3_top20.run()
        assert counts["nginx"] == 13
        assert counts["hello-world"] == 0
        assert sum(counts.values()) == sum(
            (13, 10, 13, 5, 10, 11, 9, 8, 10, 0, 13, 0, 0, 0, 12, 0, 9, 8,
             11, 12)
        )

    def test_growth_starts_13_ends_19(self):
        growth = fig5_growth.run()
        assert growth[0] == 13 and growth[-1] == 19
        # flattening: second half adds at most 2 options
        assert growth[-1] - growth[9] <= 2


class TestFig6:
    def test_lupine_fraction_of_microvm(self):
        results = fig6_image_size.run()
        fraction = results["lupine"] / results["microvm"]
        assert 0.24 <= fraction <= 0.31  # paper: 27%

    def test_tiny_smaller_than_lupine(self):
        results = fig6_image_size.run()
        assert results["lupine-tiny"] < results["lupine"]

    def test_general_below_osv_and_rump(self):
        """Section 4.2's ordering claim."""
        results = fig6_image_size.run()
        assert results["lupine-general"] < results["osv"]
        assert results["lupine-general"] < results["rump"]

    def test_hermitux_is_smallest(self):
        results = fig6_image_size.run()
        assert results["hermitux"] == min(results.values())

    def test_app_specific_band(self):
        fractions = fig6_image_size.app_specific_range()
        assert 0.24 <= min(fractions.values())
        assert max(fractions.values()) <= 0.34  # paper: 27-33%


class TestFig7:
    def test_lupine_vs_microvm(self):
        """Paper: 59% faster boot than microVM (23 vs 56 ms)."""
        results = fig7_boot_time.run()
        improvement = 1 - results["lupine-nokml"] / results["microvm"]
        assert 0.5 <= improvement <= 0.68

    def test_absolute_ballparks(self):
        results = fig7_boot_time.run()
        assert 50 <= results["microvm"] <= 62
        assert 19 <= results["lupine-nokml"] <= 26
        assert 64 <= results["lupine-kml-noparavirt"] <= 78  # paper: 71 ms

    def test_general_adds_about_2ms(self):
        results = fig7_boot_time.run()
        delta = results["lupine-nokml-general"] - results["lupine-nokml"]
        assert 0.5 <= delta <= 3.5

    def test_general_still_faster_than_hermitux_and_osv_zfs(self):
        results = fig7_boot_time.run()
        assert results["lupine-nokml-general"] < results["hermitux"]
        assert results["lupine-nokml-general"] < results["osv-zfs"]

    def test_osv_zfs_vs_rofs_10x_effect(self):
        results = fig7_boot_time.run()
        assert results["osv-zfs"] > 3 * results["osv-rofs"]

    def test_tiny_does_not_improve_boot(self):
        """Section 4.3: -tiny's 6% size cut does not speed up boot."""
        results = fig7_boot_time.run()
        assert results["lupine-nokml-tiny"] >= results["lupine-nokml"] - 1.0


class TestFig8:
    def test_microvm_vs_lupine(self):
        results = fig8_memory.run()
        assert 26 <= results["microvm"]["hello-world"] <= 32  # ~29
        assert 18 <= results["lupine"]["hello-world"] <= 24   # ~21

    def test_linux_systems_show_little_variation(self):
        """Section 4.4: 'the Linux-based approaches do not [vary]'."""
        for system in ("microvm", "lupine"):
            row = fig8_memory.run()[system]
            values = [v for v in row.values() if v is not None]
            assert max(values) - min(values) <= 3

    def test_lupine_beats_every_unikernel_on_redis(self):
        results = fig8_memory.run()
        lupine_redis = results["lupine"]["redis"]
        for system in ("hermitux", "osv", "rump"):
            assert results[system]["redis"] > lupine_redis

    def test_hermitux_nginx_absent(self):
        assert fig8_memory.run()["hermitux"]["nginx"] is None

    def test_unikernels_win_on_hello(self):
        results = fig8_memory.run()
        for system in ("hermitux", "rump", "osv"):
            assert results[system]["hello-world"] < (
                results["lupine"]["hello-world"]
            )


class TestFig9:
    @pytest.fixture(scope="class")
    def results(self):
        return fig9_syscalls.run()

    def test_specialization_up_to_56_percent(self, results):
        improvement = fig9_syscalls.specialization_improvement(results)
        assert 0.50 <= improvement <= 0.60

    def test_kml_adds_about_40_percent_on_null(self, results):
        improvement = fig9_syscalls.kml_improvement(results)
        assert 0.35 <= improvement <= 0.45

    def test_general_equals_app_specific(self, results):
        """Section 4.5: no latency difference between lupine and general."""
        for test in ("null", "read", "write"):
            assert results["lupine"][test] == pytest.approx(
                results["lupine-general"][test], rel=0.02
            )

    def test_osv_quirks(self, results):
        assert results["osv"]["null"] < results["lupine"]["null"]
        assert results["osv"]["read"] > results["microvm"]["read"]

    def test_lupine_competitive_with_unikernels(self, results):
        assert results["lupine"]["null"] <= 2.0 * results["hermitux"]["null"]


class TestFig10:
    def test_decay_shape(self):
        points = dict(fig10_kml.run())
        assert 0.35 <= points[0] <= 0.45
        assert points[160] < 0.05
        values = [v for _, v in sorted(fig10_kml.run())]
        assert values == sorted(values, reverse=True)


class TestTable4:
    PAPER = {
        "lupine": (1.21, 1.22, 1.33, 1.14),
        "lupine-general": (1.19, 1.20, 1.29, 1.15),
        "lupine-tiny": (1.15, 1.16, 1.23, 1.11),
        "lupine-nokml": (1.20, 1.21, 1.29, 1.16),
        "lupine-nokml-tiny": (1.13, 1.13, 1.21, 1.12),
        "hermitux": (0.66, 0.67, None, None),
        "osv": (0.87, 0.53, None, None),
        "rump": (0.99, 0.99, 1.25, 0.53),
    }

    @pytest.fixture(scope="class")
    def results(self):
        return table4_apps.run()

    @pytest.mark.parametrize("system", sorted(PAPER))
    def test_each_system_within_tolerance(self, results, system):
        columns = ("redis-get", "redis-set", "nginx-conn", "nginx-sess")
        for column, expected in zip(columns, self.PAPER[system]):
            measured = results[system][column]
            if expected is None:
                assert measured is None, (system, column)
            else:
                assert measured == pytest.approx(expected, abs=0.09), (
                    system, column
                )

    def test_lupine_beats_baseline_and_every_unikernel(self, results):
        for column in ("redis-get", "redis-set"):
            lupine = results["lupine"][column]
            assert lupine > 1.0
            for system in ("hermitux", "osv", "rump"):
                assert lupine > (results[system][column] or 0)

    def test_kml_contributes_at_most_a_few_points(self, results):
        """Section 4.6: KML adds at most ~4 percentage points."""
        for column in ("redis-get", "nginx-conn"):
            delta = results["lupine"][column] - results["lupine-nokml"][column]
            assert -0.01 <= delta <= 0.05

    def test_tiny_costs_up_to_10_points(self, results):
        for column in ("nginx-conn",):
            delta = results["lupine"][column] - results["lupine-tiny"][column]
            assert 0.01 <= delta <= 0.12


class TestFig11:
    def test_latency_flat_for_all_series(self):
        series = fig11_control.run()
        assert len(series) == 6
        for name, points in series.items():
            values = [v for _, v in points]
            assert max(values) - min(values) <= 0.02 * max(values), name

    def test_kml_below_nokml(self):
        series = fig11_control.run()
        for test in ("Null", "Read", "Write"):
            kml = series[f"KML {test}"][0][1]
            nokml = series[f"NOKML {test}"][0][1]
            assert kml < nokml


class TestFig12:
    @pytest.fixture(scope="class")
    def results(self):
        return fig12_ctxsw.run()

    def test_processes_not_slower_than_threads(self, results):
        # paper: max 3%
        assert fig12_ctxsw.max_process_penalty(results) <= 0.03

    def test_four_series_present(self, results):
        assert set(results) == {
            "KML Thread", "KML Process", "NOKML Thread", "NOKML Process"
        }


class TestSec5:
    @pytest.fixture(scope="class")
    def results(self):
        return sec5_smp.run()

    def test_overheads_within_paper_bounds(self, results):
        assert all(o <= 0.03 for _, o in results["sem_posix"])
        assert all(o <= 0.08 for _, o in results["futex"])
        assert all(o <= 0.03 for _, o in results["make-j"])

    def test_overheads_are_real(self, results):
        assert any(o > 0.005 for _, o in results["futex"])

    def test_two_cpu_build_nearly_halves(self):
        assert 1.7 <= sec5_smp.dual_cpu_build_speedup() <= 2.0


class TestTable5:
    @pytest.fixture(scope="class")
    def reports(self):
        return table5_lmbench.run()

    def test_lupine_general_wins_latencies(self, reports):
        microvm = reports["microvm"]
        general = reports["lupine-general"]
        wins = sum(
            1
            for name in microvm.latencies_us
            if general.latencies_us[name] <= microvm.latencies_us[name] * 1.02
        )
        assert wins >= 0.9 * len(microvm.latencies_us)

    def test_bandwidths_not_worse(self, reports):
        microvm = reports["microvm"]
        general = reports["lupine-general"]
        for name in microvm.bandwidths_mb_s:
            assert general.bandwidths_mb_s[name] >= (
                0.95 * microvm.bandwidths_mb_s[name]
            )

    def test_ctx_switch_rows_favor_lupine(self, reports):
        microvm = reports["microvm"]
        general = reports["lupine-general"]
        assert general.latencies_us["2p/0K ctxsw"] < (
            microvm.latencies_us["2p/0K ctxsw"]
        )


class TestRenderers:
    def test_every_experiment_renders_nonempty(self):
        from repro.experiments import ALL_EXPERIMENTS
        from repro.metrics.reporting import render_figure, render_table

        for name, module in ALL_EXPERIMENTS.items():
            results = module.run()
            if hasattr(module, "table"):
                text = render_table(module.table(results))
            else:
                text = render_figure(module.figure(results))
            assert len(text.splitlines()) > 3, name
