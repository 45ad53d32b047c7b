"""Tests for the experiment harness.

Covers the registry protocol, the content-addressed kernel build cache,
the on-disk result cache (hit fast path, fingerprint invalidation),
selection-order results, and the emitted run manifest.
"""

import json

import pytest

from repro.core.buildcache import BUILD_CACHE, KernelBuildCache, config_fingerprint
from repro.harness import (
    Artifact,
    Experiment,
    all_experiments,
    get_experiment,
    run_experiments,
)
from repro.harness.codec import decode, encode

#: Cheap structural experiments for cache/determinism tests.
FAST_IDS = ["fig4", "fig5", "table3"]
#: An experiment that performs kernel builds.
KERNEL_IDS = ["fig6"]


def _synthetic(name, calls, fingerprint):
    """A registry-free experiment that records its executions in *calls*."""

    def _run():
        calls.append(name)
        return {"value": len(calls), "points": [(0, 1.0), (1, 2.0)]}

    return Experiment(
        name=name,
        run_fn=_run,
        artifact_fn=lambda: Artifact(text=f"{name}: ran {len(calls)} times"),
        fingerprint_fn=lambda: fingerprint["value"],
    )


class TestBuildCache:
    def test_get_or_build_builds_once(self):
        cache = KernelBuildCache()
        built = []
        for _ in range(3):
            value = cache.get_or_build("k", lambda: built.append(1) or "image")
            assert value == "image"
        assert built == [1]
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.entries) == (1, 2, 1)

    def test_reset_drops_entries_and_counters(self):
        cache = KernelBuildCache()
        cache.get_or_build("k", lambda: "image")
        cache.reset()
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.entries) == (0, 0, 0)

    def test_config_fingerprint_is_content_addressed(self):
        base = config_fingerprint(["A", "B"], kml=True)
        assert base == config_fingerprint(["B", "A", "B"], kml=True)
        assert base != config_fingerprint(["A", "B"], kml=False)
        assert base != config_fingerprint(["A", "B", "C"], kml=True)

    def test_build_variant_shares_identical_configs(self):
        from repro.core.variants import Variant, build_variant

        first = build_variant(Variant.LUPINE_GENERAL)
        second = build_variant(Variant.LUPINE_GENERAL)
        assert first is second
        assert first.fingerprint

    def test_global_cache_is_shared(self):
        from repro.core.variants import Variant, build_variant

        build_variant(Variant.LUPINE_GENERAL)
        before = BUILD_CACHE.stats()
        build_variant(Variant.LUPINE_GENERAL)
        after = BUILD_CACHE.stats()
        assert after.misses == before.misses  # no new build
        assert after.hits == before.hits + 1

    def test_factory_raise_leaves_no_poisoned_entry(self):
        cache = KernelBuildCache()

        def _broken():
            raise RuntimeError("toolchain flake")

        with pytest.raises(RuntimeError, match="toolchain flake"):
            cache.get_or_build("k", _broken)
        # Nothing stored, nothing counted: the failed build is invisible.
        assert "k" not in cache
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.entries) == (0, 0, 0)
        # The next caller retries the factory and gets a clean build.
        assert cache.get_or_build("k", lambda: "image") == "image"
        stats = cache.stats()
        assert (stats.misses, stats.hits, stats.entries) == (1, 0, 1)

    def test_injected_factory_fault_propagates_before_store(self):
        from repro import faults
        from repro.faults import FaultInjected, FaultPlane

        cache = KernelBuildCache()
        plane = FaultPlane(seed=0)
        plane.one_shot("buildcache.factory")
        ran = []
        try:
            with faults.activated(plane):
                with pytest.raises(FaultInjected):
                    cache.get_or_build("k", lambda: ran.append(1) or "image")
        finally:
            faults.deactivate()
        # The fault fired before the factory body ran; miss accounting
        # stays consistent with entries created.
        assert ran == []
        assert cache.stats().misses == 0
        assert cache.get_or_build("k", lambda: "image") == "image"
        assert cache.stats().misses == 1


class TestRegistry:
    def test_discovers_every_experiment_module(self):
        from repro.experiments import ALL_EXPERIMENTS

        registry = all_experiments()
        assert list(registry) == list(ALL_EXPERIMENTS)
        assert len(registry) >= 17

    def test_get_experiment_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_fingerprints_stable_and_mostly_distinct(self):
        registry = all_experiments()
        fingerprints = {
            name: experiment.fingerprint()
            for name, experiment in registry.items()
        }
        again = {
            name: experiment.fingerprint()
            for name, experiment in registry.items()
        }
        assert fingerprints == again
        # Different experiments import different models.
        assert len(set(fingerprints.values())) > len(fingerprints) // 2

    def test_artifact_renders_table_or_figure(self):
        assert "Table 3" in get_experiment("table3").artifact().text
        fig5 = get_experiment("fig5").artifact()
        assert "Figure 5" in fig5.text
        assert fig5.figure is not None

    def test_unreadable_module_counted_not_swallowed(self):
        from repro.harness.registry import (
            _source_errors,
            module_fingerprint,
            reset_fingerprint_caches,
        )
        from repro.observe import METRICS

        reset_fingerprint_caches()
        try:
            before = METRICS.counter("harness.fingerprint_errors").value
            # The module name parses as a repro import but cannot be
            # imported: hashed as '' and counted, never silently dropped.
            fingerprint = module_fingerprint("repro.does_not_exist_zz")
            assert fingerprint
            assert (
                METRICS.counter("harness.fingerprint_errors").value
                == before + 1
            )
            assert "repro.does_not_exist_zz" in _source_errors
            assert _source_errors["repro.does_not_exist_zz"].startswith(
                "ModuleNotFoundError"
            )
            # Memoized: fingerprinting again does not double-count.
            module_fingerprint("repro.does_not_exist_zz")
            assert (
                METRICS.counter("harness.fingerprint_errors").value
                == before + 1
            )
        finally:
            reset_fingerprint_caches()

    def test_builtin_module_is_not_an_error(self):
        from repro.harness.registry import (
            _module_source,
            _source_errors,
            reset_fingerprint_caches,
        )
        from repro.observe import METRICS

        reset_fingerprint_caches()
        try:
            before = METRICS.counter("harness.fingerprint_errors").value
            assert _module_source("sys") == ""  # no __file__: legitimate
            assert METRICS.counter(
                "harness.fingerprint_errors"
            ).value == before
            assert "sys" not in _source_errors
        finally:
            reset_fingerprint_caches()


class TestCodec:
    def test_round_trip_preserves_structure(self):
        from repro.security.attack_surface import Cve
        from repro.syscall.lmbench import LmbenchReport

        value = {
            "report": LmbenchReport(
                system="x", latencies_us={"null call": 0.04},
                bandwidths_mb_s={"bw_mem rd": 9000.0},
            ),
            "points": [(0, 0.4), (160, 0.02)],
            "rows": {"ADVISE_SYSCALLS": ("madvise",)},
            "cve": Cve(identifier="CVE-1", option="X", severity=9.1),
            "mixed-keys": {0: "a", "b": 1},
        }
        restored = decode(encode(value))
        assert restored["report"].latencies_us == {"null call": 0.04}
        assert restored["points"] == [(0, 0.4), (160, 0.02)]
        assert restored["rows"]["ADVISE_SYSCALLS"] == ("madvise",)
        assert restored["cve"].severity == 9.1
        assert restored["mixed-keys"] == {0: "a", "b": 1}

    def test_encoded_results_are_json_serializable(self):
        run = run_experiments(
            names=["table5", "ext-security"],
            write_outputs=False, use_result_cache=False,
        )
        for result in run.results.values():
            json.dumps(encode(result), sort_keys=True)

    def test_unregistered_dataclass_rejected(self):
        import dataclasses

        @dataclasses.dataclass
        class Rogue:
            x: int = 1

        with pytest.raises(TypeError):
            encode(Rogue())


class TestResultCache:
    def test_warm_run_hits_everything_and_builds_nothing(self, tmp_path):
        names = FAST_IDS + KERNEL_IDS
        cold = run_experiments(
            names=names,
            output_dir=tmp_path / "out1", cache_dir=tmp_path / "cache",
        )
        assert cold.telemetry.result_cache_misses == len(names)
        before = BUILD_CACHE.stats()
        warm = run_experiments(
            names=names,
            output_dir=tmp_path / "out2", cache_dir=tmp_path / "cache",
        )
        after = BUILD_CACHE.stats()
        assert warm.telemetry.result_cache_hits == len(names)
        assert warm.telemetry.result_cache_misses == 0
        assert warm.telemetry.kernel_builds_performed == 0
        # The warm run never even consulted the kernel build cache.
        assert after.misses == before.misses and after.hits == before.hits
        # Byte-identical outputs.
        for name, path in cold.output_paths.items():
            assert path.read_bytes() == warm.output_paths[name].read_bytes()
        assert warm.results == cold.results

    def test_cold_and_warm_results_iterate_in_the_same_order(self, tmp_path):
        experiment = Experiment(
            name="unsorted",
            run_fn=lambda: {"microvm": {"z": 1, "a": (2, 3)},
                            "lupine": [{"b": 1, "a": 0}]},
            artifact_fn=lambda: Artifact(text="unsorted"),
            fingerprint_fn=lambda: "fp",
        )
        kwargs = dict(
            experiments=[experiment], write_outputs=False,
            cache_dir=tmp_path / "cache",
        )
        cold = run_experiments(**kwargs)
        warm = run_experiments(**kwargs)
        assert warm.telemetry.result_cache_hits == 1
        cold_result = cold.results["unsorted"]
        warm_result = warm.results["unsorted"]
        assert warm_result == cold_result
        # Consumers iterate these dicts (the EXPERIMENTS.md generator
        # renders table rows in dict order): order must not depend on
        # whether the result came from the cache.
        assert repr(warm_result) == repr(cold_result)

    def test_fingerprint_change_invalidates(self, tmp_path):
        calls = []
        fingerprint = {"value": "aaaa"}
        experiment = _synthetic("synthetic", calls, fingerprint)
        kwargs = dict(
            experiments=[experiment], write_outputs=False,
            cache_dir=tmp_path / "cache",
        )
        run_experiments(**kwargs)
        assert calls == ["synthetic"]
        second = run_experiments(**kwargs)
        assert calls == ["synthetic"]  # cache hit: not re-executed
        assert second.telemetry.result_cache_hits == 1

        fingerprint["value"] = "bbbb"  # inputs changed
        third = run_experiments(**kwargs)
        assert calls == ["synthetic", "synthetic"]
        assert third.telemetry.result_cache_misses == 1

    def test_force_reruns_but_refreshes_cache(self, tmp_path):
        calls = []
        fingerprint = {"value": "aaaa"}
        experiment = _synthetic("synthetic", calls, fingerprint)
        kwargs = dict(
            experiments=[experiment], write_outputs=False,
            cache_dir=tmp_path / "cache",
        )
        run_experiments(**kwargs)
        run_experiments(force=True, **kwargs)
        assert calls == ["synthetic", "synthetic"]
        final = run_experiments(**kwargs)
        assert final.telemetry.result_cache_hits == 1

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        calls = []
        fingerprint = {"value": "aaaa"}
        experiment = _synthetic("synthetic", calls, fingerprint)
        kwargs = dict(
            experiments=[experiment], write_outputs=False,
            cache_dir=tmp_path / "cache",
        )
        run_experiments(**kwargs)
        for path in (tmp_path / "cache").glob("*.json"):
            path.write_text("{not json")
        run_experiments(**kwargs)
        assert calls == ["synthetic", "synthetic"]


class TestDeterminism:
    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(names=["fig99"], write_outputs=False)


class TestManifest:
    def test_manifest_written_with_telemetry(self, tmp_path):
        run = run_experiments(
            names=FAST_IDS,
            output_dir=tmp_path / "out", cache_dir=tmp_path / "cache",
        )
        assert run.manifest_path is not None
        manifest = json.loads(run.manifest_path.read_text())
        assert manifest["schema_version"] == 3
        assert "jobs" not in manifest and "effective_jobs" not in manifest
        assert [e["name"] for e in manifest["experiments"]] == FAST_IDS
        for entry in manifest["experiments"]:
            assert entry["wall_ms"] >= 0
            assert entry["fingerprint"]
            assert entry["cache_hit"] is False
        assert manifest["result_cache"]["misses"] == len(FAST_IDS)
        assert "performed" in manifest["kernel_builds"]

    def test_warm_manifest_reports_full_hit_rate(self, tmp_path):
        kwargs = dict(
            names=FAST_IDS,
            output_dir=tmp_path / "out", cache_dir=tmp_path / "cache",
        )
        run_experiments(**kwargs)
        warm = run_experiments(**kwargs)
        manifest = json.loads(warm.manifest_path.read_text())
        assert manifest["result_cache"]["hit_rate"] == 1.0
        assert manifest["kernel_builds"]["performed"] == 0
