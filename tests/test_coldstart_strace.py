"""Tests for the cold-start workload."""

import pytest

from repro.workloads.coldstart import run_cold_starts


class TestColdStart:
    @pytest.fixture(scope="class")
    def results(self):
        return run_cold_starts()

    def test_all_redis_capable_systems_present(self, results):
        assert {"microvm", "lupine-nokml", "hermitux", "osv", "rump"} <= set(
            results
        )

    def test_lupine_beats_microvm(self, results):
        assert (results["lupine-nokml"].total_ms
                < 0.55 * results["microvm"].total_ms)

    def test_boot_dominates_cold_start(self, results):
        for result in results.values():
            assert result.boot_ms > result.first_request_ms

    def test_total_is_sum(self, results):
        result = results["lupine-nokml"]
        assert result.total_ms == pytest.approx(
            result.boot_ms + result.app_init_ms + result.first_request_ms
        )

    def test_lupine_in_unikernel_ballpark(self, results):
        unikernel_best = min(
            results[name].total_ms for name in ("hermitux", "osv", "rump")
        )
        assert results["lupine-nokml"].total_ms < 2.5 * unikernel_best
