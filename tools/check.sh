#!/bin/sh
# Repo health check: tier-1 tests, the EXPERIMENTS.md generator, the
# observability perf gate, and the chaos (fault-injection) gate.
#
# The generator is deliberately run from a temporary working directory to
# guard the sys.path bootstrap in tools/generate_experiments_md.py -- it
# must locate the repro package regardless of the caller's cwd.
#
# The perf gate runs run-all twice into a scratch directory (first run
# warms the result cache, second run must be fully warm) and compares the
# warm run's cost counters against benchmarks/baseline/metrics.json with
# timings disabled, so it holds on any machine.  Artifacts from the warm
# run are left in $RUN_DIR for CI to archive (override with
# CHECK_RUN_DIR).
#
# The resolver gate runs the differential suite (worklist engine vs the
# full-sweep oracle), then bench-resolve --check (warm-start must beat 20
# cold sweeps by >= 10x on visited options; cache hits must do zero
# resolution work) and regresses the resulting counters against
# benchmarks/baseline/BENCH_resolve.json.
#
# The single-time-authority lint (tools/lint_time.py) enforces the
# simcore invariant: no simulator advances time through the tracer's sim
# view or keeps a private clock accumulator field.
#
# The fleet gate runs bench-guests --check and regresses the result
# against benchmarks/baseline/BENCH_guests.json.  The run asserts the
# fleet scale/kernel-sharing criteria and that the cohort-vectorized
# fold reproduces the sequential oracle's manifest digest; the regress
# step pins every scenario's digest (the 10k-guest cohort fleet's
# included) and fails if a pinned scenario goes missing.
#
# The serving gate runs bench-serve --check (the canonical 100k-request
# diurnal trace per warm-pool policy, each run twice: manifests must
# reproduce byte-identically, scale-to-zero must cold-boot >= 1000
# guests with a nonzero cold-start fraction, the fixed pool must buy
# the latency tail back, and the chaos scenario must recover -- nonzero
# restarts/retries, error rate below the injected fault mass, request
# conservation) and regresses its counters and digests against
# benchmarks/baseline/BENCH_serve.json.
#
# The chaos-serve gate (repro-lupine chaos-serve) reruns the canonical
# serving trace under the stock seeded guest-fault schedule and asserts
# the serving resilience invariants: faulted reruns and the --jobs
# policy sweep are byte-identical, and an installed-but-empty fault
# plane reproduces the committed BENCH_serve.json digests exactly.
#
# The derive gate runs bench-derive --check twice -- at --jobs 2 and
# --jobs 3 -- and regresses both runs against the same
# benchmarks/baseline/BENCH_derive.json.  Each run records every top-20
# app's usage, derives a config from the observation and audits it:
# 100% coverage of recorded usage, enabled-option count within 1.5x the
# curated config, and byte-identical usage/config/report digests across
# in-bench reruns; regressing both job counts against one pinned
# digests section is the derive fan-out-determinism gate (see
# docs/SPECIALIZATION.md).
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
# that no longer resolves to a file in the repository.
#
# The chaos gate runs the full suite twice under the same seeded fault
# schedule (repro-lupine chaos) and asserts the resilience invariants:
# every experiment ends with a definite status, manifest/trace/metrics
# always land, no stray temp files, and the two sub-runs are
# byte-identical (see docs/RESILIENCE.md).  The warm run-all + regression
# gate above doubles as the zero-fault invariant: with no fault plane
# installed, counters (0 failures, 0 retries, 0 injected faults) must
# match benchmarks/baseline/metrics.json.
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

echo "==> single-time-authority lint"
python "$REPO_ROOT/tools/lint_time.py"

echo "==> docs dead-link check"
python "$REPO_ROOT/tools/check_docs_links.py"

echo "==> fault-site registry drift check"
python "$REPO_ROOT/tools/check_fault_sites.py"

echo "==> tier-1 test suite"
(cd "$REPO_ROOT" && PYTHONPATH=src python -m pytest -q)

echo "==> host-time benchmark self-tests (perfbench/tests)"
(cd "$REPO_ROOT" && python3 -m pytest -q perfbench/tests)

echo "==> EXPERIMENTS.md generator (from a temp cwd, no PYTHONPATH)"
TMP_DIR=$(mktemp -d)
trap 'rm -rf "$TMP_DIR"' EXIT
(cd "$TMP_DIR" && python "$REPO_ROOT/tools/generate_experiments_md.py" --jobs 2)
test -s "$TMP_DIR/EXPERIMENTS.md"
grep -q "Running the experiments" "$TMP_DIR/EXPERIMENTS.md"
grep -q "Run manifest schema" "$TMP_DIR/EXPERIMENTS.md"

echo "==> resolver differential suite (worklist vs sweep oracle)"
(cd "$REPO_ROOT" && PYTHONPATH=src python -m pytest -q \
    tests/kconfig/test_resolver_differential.py)

echo "==> warm run-all + regression gate"
RUN_DIR=${CHECK_RUN_DIR:-"$TMP_DIR/run"}
cd "$REPO_ROOT"
PYTHONPATH=src python -m repro.cli run-all --jobs 2 --output-dir "$RUN_DIR" \
    > /dev/null
PYTHONPATH=src python -m repro.cli run-all --jobs 2 --output-dir "$RUN_DIR"
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

echo "==> fleet-simulation microbenchmark + cohort + counter gate"
PYTHONPATH=src python -m repro.cli bench-guests --check \
    --output-dir "$RUN_DIR"
PYTHONPATH=src python -m repro.observe.regress \
    benchmarks/baseline/BENCH_guests.json "$RUN_DIR/BENCH_guests.json" \
    --no-timings

echo "==> traffic-serving microbenchmark + determinism + counter gate"
PYTHONPATH=src python -m repro.cli bench-serve --check \
    --output-dir "$RUN_DIR"
PYTHONPATH=src python -m repro.observe.regress \
    benchmarks/baseline/BENCH_serve.json "$RUN_DIR/BENCH_serve.json" \
    --no-timings

echo "==> chaos-serve gate (seeded guest faults, rerun/jobs/zero-fault)"
PYTHONPATH=src python -m repro.cli chaos-serve --seed 77 --jobs 2

echo "==> trace-driven derivation gate (coverage, option ratio, digests)"
PYTHONPATH=src python -m repro.cli bench-derive --check \
    --jobs 2 --output-dir "$RUN_DIR"
PYTHONPATH=src python -m repro.observe.regress \
    benchmarks/baseline/BENCH_derive.json "$RUN_DIR/BENCH_derive.json" \
    --no-timings

echo "==> derive fan-out-determinism gate (same digests at --jobs 3)"
PYTHONPATH=src python -m repro.cli bench-derive --check \
    --jobs 3 --output-dir "$TMP_DIR/derive-jobs3"
PYTHONPATH=src python -m repro.observe.regress \
    benchmarks/baseline/BENCH_derive.json \
    "$TMP_DIR/derive-jobs3/BENCH_derive.json" \
    --no-timings

echo "==> all checks passed"
