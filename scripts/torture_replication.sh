#!/usr/bin/env bash
# Crash-recovery torture loop for the replicated controller.
#
# Repeats the two hardest replication suites back to back:
#
#   * test_replication_crash — the primary runs as a CHILD PROCESS and is
#     killed with a real `kill -9` mid-run; the standby must promote and
#     finish the workload with the bit-for-bit cost series of an unfailed
#     run, every single iteration.
#   * test_replication_chaos — injected divergence (caught within one
#     slot commit + reseeded once), a stalled standby (dropped, never
#     wedging the slot clock), partitions and standby turnover, and
#     ReplicationChaos.SubmissionsRacingTheSlotCutReplayWithoutReseeds:
#     one client submits every 200 us while another advances 60 slots, so
#     pushes race the primary's slot cut; the standby must follow every
#     commit with no fingerprint mismatch and no reseed.
#
# Flakes in failover logic love timing luck; one pass proves little. The
# loop surfaces the rare interleavings: any failed iteration stops the
# run immediately (set -e) with the iteration number on stderr.
#
#   ITERS=50 BUILD=build-tsan scripts/torture_replication.sh
#
# ITERS: iterations (default 20). BUILD: build dir (default build) — use
# build-tsan for the race-hunting variant.
set -euo pipefail

cd "$(dirname "$0")/.."
ITERS="${ITERS:-20}"
BUILD="${BUILD:-build}"

if [ ! -x "${BUILD}/tests/test_replication_crash" ] ||
   [ ! -x "${BUILD}/tests/test_replication_chaos" ]; then
  echo "replication test binaries missing under ${BUILD}/ — building" >&2
  cmake -B "${BUILD}" -S .
  cmake --build "${BUILD}" -j "$(nproc)" \
    --target test_replication_crash test_replication_chaos
fi

for i in $(seq 1 "${ITERS}"); do
  echo "=== torture iteration ${i}/${ITERS} ==="
  "${BUILD}/tests/test_replication_crash" --gtest_brief=1 ||
    { echo "CRASH SUITE FAILED at iteration ${i}" >&2; exit 1; }
  "${BUILD}/tests/test_replication_chaos" --gtest_brief=1 ||
    { echo "CHAOS SUITE FAILED at iteration ${i}" >&2; exit 1; }
done
echo "TORTURE_OK ${ITERS} iterations"
