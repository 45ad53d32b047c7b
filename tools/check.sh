#!/bin/sh
# Repo health check: lints, tier-1 tests, the EXPERIMENTS.md generator,
# the observability perf gate, the harness chaos gate, and the four
# counted benchmarks, each followed by its regress step.
#
# The generator is deliberately run from a temporary working directory to
# guard the sys.path bootstrap in tools/generate_experiments_md.py -- it
# must locate the repro package regardless of the caller's cwd -- and its
# output must equal the committed EXPERIMENTS.md byte for byte (cold and
# warm harness results iterate identically, so the result cache's state
# does not matter).
#
# The perf gate runs run-all twice into a scratch directory (first run
# warms the result cache, second run must be fully warm) and compares the
# warm run's cost counters against benchmarks/baseline/metrics.json with
# timings disabled, so it holds on any machine.  Artifacts from the warm
# run are left in $RUN_DIR for CI to archive (override with
# CHECK_RUN_DIR).
#
# The single-time-authority lint (tools/lint_time.py) enforces the
# simcore invariant: no simulator advances time through the tracer's sim
# view or keeps a private clock accumulator field.  Its no-threads rule
# covers all of src/repro: every process runs repro code on one thread
# (experiments run in order), so the clock, fault plane, tracer and
# metrics hold no locks; worker processes stay allowed.
#
# The counted benchmarks all run through one CLI path (repro.cli.BENCHES):
# `bench-<name> --check` writes BENCH_<name>.json and enforces that
# bench's acceptance criteria, then `regress` compares its counters and
# pins every digest against benchmarks/baseline/BENCH_<name>.json (a
# pinned digest the run no longer emits fails too).
#
# - bench-resolve: warm-start must beat 20 cold resolutions by >= 10x
#   on visited options, cache hits do zero resolution work, and every
#   scenario must report.  The differential suite (worklist engine vs
#   the full-sweep oracle in tests/oracles/sweep.py) runs just before it.
# - bench-guests: every scenario reports, and the fleet scale and
#   kernel-sharing criteria hold for the cohort fold.  regress pins its
#   manifest digests; tier-1 (tests/test_shard_fleet.py) checks that the
#   sequential oracle in tests/oracles/fleet.py reproduces them.
# - bench-serve: the canonical 100k-request diurnal trace per warm-pool
#   policy, clean and under the stock guest-fault schedule (seed 77),
#   each run twice.  Every rerun must reproduce its digest: the clean
#   reruns under an installed-but-empty fault plane (regress pins them to
#   the no-plane baseline), the faulted reruns as one two-worker
#   run_serving_many sweep (rerun determinism and fan-out equivalence).
#   Scale-to-zero must cold-boot >= 1000 guests with a nonzero cold-start
#   fraction, the fixed pool must buy the latency tail back, and both
#   faulted runs must recover: nonzero restarts/retries, request
#   conservation, error rate below the injected fault mass.
# - bench-derive: every top-20 app's recorded usage -> derived config
#   covers 100% of that usage, stays within 1.5x the curated option
#   count, and reproduces its digests on rerun (see
#   docs/SPECIALIZATION.md).
#
# The fault-site drift check (tools/check_fault_sites.py) cross-checks
# every fault_site()/corrupt_text() literal wired in src/ against the
# site table in docs/RESILIENCE.md, both directions.
#
# No PYTHONHASHSEED pin anywhere: every config-option float fold
# iterates its frozenset sorted, so all manifest digests are hash-seed
# independent (tests/test_golden_parity.py and tests/test_shard_fleet.py
# pin this).
#
# The host-time benchmark's own tests (perfbench/tests) run tiny timed
# runs of every workload and tiny traced runs of serve_cold: they catch
# a change that breaks the benchmark's output checks or its outside-in
# per-layer wrappers (e.g. a wrapped boundary turned into something
# other than a plain property, method or function), which tier-1
# cannot see.
#
# The docs-link check (tools/check_docs_links.py) fails on any relative
# markdown link in README.md/DESIGN.md/EXPERIMENTS.md/ROADMAP.md/docs/
# that no longer resolves to a file in the repository, and on any
# backticked repository path in the same docs (ROADMAP.md excepted) that
# names a file which does not exist.
#
# The reachability gate (tools/check_reachability.py) walks repro.*
# imports statically from the shipped entry points (src/repro/cli.py,
# perfbench/, tools/, examples/) and fails naming every src/repro module
# it never reaches: code only tests use belongs in tests/.
#
# The chaos gate runs the full suite twice under the same seeded fault
# schedule (repro-lupine chaos) and asserts the resilience invariants:
# every experiment ends with a definite status, manifest/trace/metrics
# always land, no stray temp files, and the two sub-runs are
# byte-identical, every file compared (see docs/RESILIENCE.md).  The warm run-all + regression
# gate above doubles as the zero-fault invariant: with no fault plane
# installed, counters (0 failures, 0 retries, 0 injected faults) must
# match benchmarks/baseline/metrics.json.
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

echo "==> single-time-authority + no-threads lint"
python "$REPO_ROOT/tools/lint_time.py"

echo "==> docs dead-link check"
python "$REPO_ROOT/tools/check_docs_links.py"

echo "==> reachability gate (every src/repro module reached from an entry point)"
python "$REPO_ROOT/tools/check_reachability.py"

echo "==> fault-site registry drift check"
python "$REPO_ROOT/tools/check_fault_sites.py"

echo "==> tier-1 test suite"
(cd "$REPO_ROOT" && PYTHONPATH=src python -m pytest -q)

echo "==> host-time benchmark self-tests (perfbench/tests)"
(cd "$REPO_ROOT" && python3 -m pytest -q perfbench/tests)

echo "==> EXPERIMENTS.md generator (from a temp cwd, no PYTHONPATH)"
TMP_DIR=$(mktemp -d)
trap 'rm -rf "$TMP_DIR"' EXIT
(cd "$TMP_DIR" && python "$REPO_ROOT/tools/generate_experiments_md.py")
diff "$REPO_ROOT/EXPERIMENTS.md" "$TMP_DIR/EXPERIMENTS.md"

echo "==> resolver differential suite (worklist vs full-sweep oracle)"
(cd "$REPO_ROOT" && PYTHONPATH=src python -m pytest -q \
    tests/kconfig/test_resolver_differential.py)

echo "==> warm run-all + regression gate"
RUN_DIR=${CHECK_RUN_DIR:-"$TMP_DIR/run"}
cd "$REPO_ROOT"
PYTHONPATH=src python -m repro.cli run-all --output-dir "$RUN_DIR" > /dev/null
PYTHONPATH=src python -m repro.cli run-all --output-dir "$RUN_DIR"
test -s "$RUN_DIR/trace.json"
test -s "$RUN_DIR/metrics.json"
test -s "$RUN_DIR/run_manifest.json"
PYTHONPATH=src python -m repro.observe.regress \
    benchmarks/baseline "$RUN_DIR" --no-timings

echo "==> chaos gate (seeded fault schedule, 2 sub-runs, byte-identical)"
PYTHONPATH=src python -m repro.cli chaos --seed 1234 \
    --output-dir "$TMP_DIR/chaos"

echo "==> resolver microbenchmark + counter gate"
PYTHONPATH=src python -m repro.cli bench-resolve --check \
    --output-dir "$RUN_DIR"
PYTHONPATH=src python -m repro.observe.regress \
    benchmarks/baseline/BENCH_resolve.json "$RUN_DIR/BENCH_resolve.json" \
    --no-timings

echo "==> fleet-simulation microbenchmark + counter gate"
PYTHONPATH=src python -m repro.cli bench-guests --check \
    --output-dir "$RUN_DIR"
PYTHONPATH=src python -m repro.observe.regress \
    benchmarks/baseline/BENCH_guests.json "$RUN_DIR/BENCH_guests.json" \
    --no-timings

echo "==> traffic-serving microbenchmark: determinism, faults, counter gate"
PYTHONPATH=src python -m repro.cli bench-serve --check \
    --output-dir "$RUN_DIR"
PYTHONPATH=src python -m repro.observe.regress \
    benchmarks/baseline/BENCH_serve.json "$RUN_DIR/BENCH_serve.json" \
    --no-timings

echo "==> trace-driven derivation gate (coverage, option ratio, digests)"
PYTHONPATH=src python -m repro.cli bench-derive --check \
    --output-dir "$RUN_DIR"
PYTHONPATH=src python -m repro.observe.regress \
    benchmarks/baseline/BENCH_derive.json "$RUN_DIR/BENCH_derive.json" \
    --no-timings

echo "==> all checks passed"
