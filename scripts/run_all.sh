#!/usr/bin/env bash
# Final verification driver: configure + build, full test suite, a
# ThreadSanitizer pass over the runtime|chaos|server|scale|replication
# labels, ASan+UBSan and standalone UBSan passes over
# charging|runtime|chaos|linalg|lp|audit|server|scale|replication (the
# test presets' filters in CMakePresets.json), postcard-lint, the clang
# tidy gate, and every benchmark binary with the trajectory gate, teeing
# into the repository-root output files.
#
# JOBS controls build/test parallelism (default: all cores).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

cmake -B build -S .
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}" 2>&1 | tee test_output.txt

# Concurrency suite under TSAN: the preset configures build-tsan/ with
# -DPOSTCARD_TSAN=ON; any data race fails the run. `chaos` labels the
# fault-injection suites (link failures and the degradation ladder).
cmake --preset tsan
cmake --build build-tsan -j "${JOBS}"
ctest --test-dir build-tsan -L "runtime|chaos|server|scale|replication" --output-on-failure \
  -j "${JOBS}" 2>&1 | tee -a test_output.txt

# Memory-safety pass: ASan + UBSan (fail-fast on UB) over the charging
# ledgers, the runtime + chaos engines and the linalg/LP kernels — the
# subsystems with slot-indexed series (the per-link ledgers that grow on
# every commit and are rebuilt from snapshot bytes), cross-thread handoff
# and index-driven scratch arrays (the hyper-sparse LU solves and simplex
# pivots).
cmake --preset asan
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan -L "charging|runtime|chaos|linalg|lp|audit|server|scale|replication" \
  --output-on-failure -j "${JOBS}" 2>&1 | tee -a test_output.txt

# Standalone UBSan pass (works under GCC; +float-divide-by-zero, which the
# combined ASan preset does not enable): charging, runtime, chaos, the
# linalg and LP kernels, and the plan-audit suites.
cmake --preset ubsan
cmake --build build-ubsan -j "${JOBS}"
ctest --test-dir build-ubsan -L "charging|runtime|chaos|linalg|lp|audit|server|scale|replication" \
  --output-on-failure -j "${JOBS}" 2>&1 | tee -a test_output.txt

# Project-invariant lint (tools/postcard_lint): determinism, layering,
# wire-decode and lock discipline over src/, driven by the compile
# database. Needs no clang — this gate runs on every box; any unsuppressed
# finding fails the run.
scripts/check_lint.sh 2>&1 | tee -a test_output.txt

# Static-analysis gate: clang thread-safety analysis + clang-tidy. Skips
# loudly (exit 0) when clang is not installed — see the script header.
scripts/check_tidy.sh 2>&1 | tee -a test_output.txt

# Stash the committed BENCH_*.json baseline before the benches overwrite
# it: the trajectory gate below diffs new-vs-previous metric by metric.
mkdir -p build/bench_prev
rm -f build/bench_prev/BENCH_*.json
cp BENCH_*.json build/bench_prev/ 2>/dev/null || true

for b in build/bench/bench_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  "$b"
done 2>&1 | tee bench_output.txt

# Loud regression gate over the structured bench output: latency > 1.5x,
# cost > 1.10x, warm-accept rate dropping > 0.15 etc. fail the run (see
# scripts/summarize_benches.py --check-trajectory).
python3 scripts/summarize_benches.py --check-trajectory build/bench_prev . \
  2>&1 | tee -a bench_output.txt
echo "ALL_RUNS_COMPLETE"
