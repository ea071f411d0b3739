// Slot watchdog and degradation ladder (DESIGN.md §9): the per-slot pivot
// budget is the ladder's one trigger, and real inputs reach every rung —
// budget-truncated CG, the greedy fallback, store-in-place deferral. Every
// degraded slot must stay fully accounted (no silent drops) and
// bit-for-bit replayable (pivot budgets are deterministic).
#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include "core/postcard.h"
#include "sim/workload.h"

namespace postcard::runtime {
namespace {

// Fig. 4 shape at reduced scale (same parameters as the determinism suite).
sim::WorkloadParams fig4_shaped(std::uint64_t seed) {
  sim::WorkloadParams p;
  p.num_datacenters = 6;
  p.link_capacity = 100.0;
  p.cost_min = 1.0;
  p.cost_max = 10.0;
  p.files_per_slot_min = 1;
  p.files_per_slot_max = 4;
  p.size_min = 10.0;
  p.size_max = 100.0;
  p.deadline_min = 1;
  p.deadline_max = 3;
  p.num_slots = 10;
  p.seed = seed;
  return p;
}

double offered_volume(const sim::UniformWorkload& w) {
  double total = 0.0;
  for (int slot = 0; slot < w.num_slots(); ++slot) {
    for (const net::FileRequest& f : w.batch(slot)) total += f.size;
  }
  return total;
}

// Every admitted file must end in exactly one terminal counter: accepted,
// rejected, or failed (deferred files eventually resolve into one of them;
// flush fails leftovers loudly).
void expect_fully_accounted(const RuntimeStats& stats,
                            const sim::UniformWorkload& w) {
  ASSERT_EQ(stats.backends.size(), 1u);
  const BackendStats& b = stats.backends[0];
  EXPECT_EQ(stats.ingress_rejected, 0);
  EXPECT_EQ(b.accepted_files + b.rejected_files + b.failed_files,
            stats.admitted);
  EXPECT_NEAR(b.accepted_volume + b.rejected_volume + b.failed_volume,
              offered_volume(w), 1e-6);
}

RuntimeOptions budgeted(long pivot_budget) {
  RuntimeOptions options;
  options.slot_pivot_budget = pivot_budget;
  return options;
}

// Submits every batch of `w` up front (each file queued for its release
// slot), so admission sees the provisioned capacities even when a link
// outage is scheduled for a later slot; run() then ticks them in order.
void submit_all(ControllerRuntime& runtime, const sim::UniformWorkload& w) {
  for (int slot = 0; slot < w.num_slots(); ++slot) {
    for (const net::FileRequest& f : w.batch(slot)) {
      ASSERT_TRUE(runtime.ingress().submit(f).admitted);
    }
  }
}

// Zeroes every link's capacity at `from` and restores it at `to`: no path
// exists in between, so files the LP rungs leave to the greedy rung can
// only be deferred.
void schedule_outage(ControllerRuntime& runtime, const net::Topology& topology,
                     int from, int to) {
  for (int l = 0; l < topology.num_links(); ++l) {
    runtime.change_capacity(from, l, 0.0);
    runtime.change_capacity(to, l, topology.link(l).capacity);
  }
}

TEST(RuntimeDegradation, InjectedStallFallsBackWithinTheSameSlot) {
  // The stall is a 1-unit slot pivot budget: it runs out inside round 0's
  // first master, which fails outright. No path column ever enters, so
  // every slot's batch lands on the greedy rung within its own slot.
  const sim::UniformWorkload w(fig4_shaped(21));
  ControllerRuntime runtime{net::Topology(w.topology()), budgeted(1)};
  runtime.add_postcard_backend();
  const RuntimeStats stats = runtime.replay(w);

  const BackendStats& b = stats.backends[0];
  EXPECT_EQ(b.rung_full, 0);
  EXPECT_EQ(b.rung_truncated, 0);
  EXPECT_EQ(b.rung_greedy, b.accepted_files);
  EXPECT_GT(b.rung_greedy, 0);
  EXPECT_EQ(b.carryover_files, 0);  // placed in the slot that stalled
  EXPECT_EQ(b.degraded_slots, stats.slots_processed);
  EXPECT_GE(b.degraded_cost_delta, -1e-9);
  // The cut-off master is a loud solver failure, not a capacity drop.
  EXPECT_EQ(b.solver_failures, stats.slots_processed);
  EXPECT_EQ(b.last_solver_status, "deadline_exceeded");
  expect_fully_accounted(stats, w);
}

TEST(RuntimeDegradation, InjectedFaultForcesGreedyRung) {
  // A 2-unit slot pivot budget lets round 0 prove its all-unrouted start
  // optimal and then truncates before any path column enters: the
  // truncated rung places nothing and the greedy rung takes every file.
  const sim::UniformWorkload w(fig4_shaped(21));
  ControllerRuntime runtime{net::Topology(w.topology()), budgeted(2)};
  runtime.add_postcard_backend();
  const RuntimeStats stats = runtime.replay(w);

  const BackendStats& b = stats.backends[0];
  EXPECT_EQ(b.rung_full, 0);
  EXPECT_EQ(b.rung_truncated, stats.slots_processed);
  EXPECT_EQ(b.rung_greedy, b.accepted_files);
  EXPECT_GT(b.rung_greedy, 0);
  EXPECT_EQ(b.degraded_slots, stats.slots_processed);
  EXPECT_GE(b.degraded_cost_delta, -1e-9);
  // A truncated solve is a budget verdict, not a solver failure.
  EXPECT_EQ(b.solver_failures, 0);
  expect_fully_accounted(stats, w);
}

TEST(RuntimeDegradation, OutageUnderStarvedBudgetDefersIntoCarryover) {
  // With no link up at slot 2, the greedy rung finds no path for the
  // slot's batch: each file is deferred, carried into slot 3 with one
  // slot less to transfer, or failed loudly when none is left.
  const sim::UniformWorkload w(fig4_shaped(23));
  ControllerRuntime runtime{net::Topology(w.topology()), budgeted(2)};
  runtime.add_postcard_backend();
  submit_all(runtime, w);
  schedule_outage(runtime, w.topology(), /*from=*/2, /*to=*/3);
  runtime.run(w.num_slots());
  const RuntimeStats stats = runtime.stats();

  const BackendStats& b = stats.backends[0];
  EXPECT_GT(b.carryover_files + b.failed_files, 0);
  EXPECT_EQ(b.rejected_files, 0);  // a deferral is never a rejection
  EXPECT_GE(b.degraded_slots, 1);
  EXPECT_EQ(stats.link_events, 2 * w.topology().num_links());
  expect_fully_accounted(stats, w);
}

TEST(RuntimeDegradation, BudgetedRunReplaysBitForBit) {
  // Pivot budgets are pure arithmetic: the same budget and the same link
  // schedule degrade at the same pivot and reproduce the entire cost
  // series exactly, across the truncated, greedy and deferral rungs.
  const sim::UniformWorkload w(fig4_shaped(24));

  auto run = [&] {
    ControllerRuntime runtime{net::Topology(w.topology()), budgeted(10)};
    runtime.add_postcard_backend();
    submit_all(runtime, w);
    schedule_outage(runtime, w.topology(), /*from=*/6, /*to=*/7);
    runtime.run(w.num_slots());
    return runtime.stats();
  };
  const RuntimeStats a = run();
  const RuntimeStats c = run();

  const BackendStats& ba = a.backends[0];
  const BackendStats& bc = c.backends[0];
  EXPECT_EQ(ba.cost_series, bc.cost_series);
  EXPECT_EQ(ba.rung_full, bc.rung_full);
  EXPECT_EQ(ba.rung_truncated, bc.rung_truncated);
  EXPECT_EQ(ba.rung_greedy, bc.rung_greedy);
  EXPECT_EQ(ba.carryover_files, bc.carryover_files);
  EXPECT_EQ(ba.degraded_slots, bc.degraded_slots);
  EXPECT_EQ(ba.degraded_cost_delta, bc.degraded_cost_delta);
  EXPECT_EQ(ba.accepted_volume, bc.accepted_volume);
  EXPECT_EQ(ba.failed_volume, bc.failed_volume);
  EXPECT_GT(ba.rung_truncated, 0);
  EXPECT_GT(ba.rung_greedy, 0);
  EXPECT_GT(ba.carryover_files + ba.failed_files, 0);
  expect_fully_accounted(a, w);
}

TEST(RuntimeDegradation, SlotPivotBudgetTriggersTruncatedRung) {
  // Scanning budgets upward must hit a point where some slot's first
  // master finishes but column generation is cut off — the truncated-CG
  // rung commits the incumbent master instead of dropping to greedy.
  const sim::UniformWorkload w(fig4_shaped(25));
  bool saw_truncated = false;
  for (long budget = 1; budget <= 120 && !saw_truncated; ++budget) {
    RuntimeOptions options;
    options.slot_pivot_budget = budget;
    ControllerRuntime runtime{net::Topology(w.topology()), options};
    runtime.add_postcard_backend();
    const RuntimeStats stats = runtime.replay(w);
    expect_fully_accounted(stats, w);
    if (stats.backends[0].rung_truncated > 0) saw_truncated = true;
  }
  EXPECT_TRUE(saw_truncated);
}

TEST(RuntimeDegradation, GenerousBudgetLeavesTheRunUntouched) {
  // An armed but never-exhausted watchdog must not perturb the solve: same
  // cost series as the unbudgeted run, all slots on the full-LP rung.
  const sim::UniformWorkload w(fig4_shaped(26));

  ControllerRuntime plain{net::Topology(w.topology()), RuntimeOptions{}};
  plain.add_postcard_backend();
  const RuntimeStats reference = plain.replay(w);

  RuntimeOptions options;
  options.slot_pivot_budget = 1'000'000;
  ControllerRuntime runtime{net::Topology(w.topology()), options};
  runtime.add_postcard_backend();
  const RuntimeStats stats = runtime.replay(w);

  const BackendStats& b = stats.backends[0];
  EXPECT_EQ(b.cost_series, reference.backends[0].cost_series);
  // Every slot has files, and every slot commits an LP optimum: the full
  // rung counts each of them, budgeted or not.
  EXPECT_EQ(reference.backends[0].rung_full, reference.slots_processed);
  EXPECT_EQ(b.rung_full, stats.slots_processed);
  EXPECT_EQ(b.rung_truncated, 0);
  EXPECT_EQ(b.rung_greedy, 0);
  EXPECT_EQ(b.degraded_slots, 0);
}

TEST(RuntimeDegradation, ThreeSlotCarryChainStaysFullyAccounted) {
  // Forced multi-slot carry-over chain: an outage over slots 2-4 under a
  // starved budget pushes the slot-2 files through carry_batch three
  // times (release_slot + 1, max_transfer_slots - 1 each hop) before the
  // restored links take them at slot 5. Every admitted file must still
  // land in exactly one terminal counter, and a file's volume must not be
  // re-counted per hop.
  sim::WorkloadParams p = fig4_shaped(31);
  p.deadline_min = 4;  // survives three deferrals, accepted on the fourth
  p.deadline_max = 5;
  const sim::UniformWorkload w(p);

  ControllerRuntime runtime{net::Topology(w.topology()), budgeted(2)};
  runtime.add_postcard_backend();
  submit_all(runtime, w);
  schedule_outage(runtime, w.topology(), /*from=*/2, /*to=*/5);
  runtime.run(w.num_slots());
  const RuntimeStats stats = runtime.stats();

  const BackendStats& b = stats.backends[0];
  // The slot-2 batch was deferred three times: at least one file made
  // three carry hops (deadline_min = 4 leaves slack for all three).
  EXPECT_GE(b.carryover_files, 3);
  EXPECT_GE(b.degraded_slots, 3);
  expect_fully_accounted(stats, w);
  // Chain-length accounting: carryover_files counts hops; the number of
  // distinct files that ever entered the carry state is tracked
  // separately and can never exceed the hop count.
  EXPECT_GT(b.carryover_entered_files, 0);
  EXPECT_LE(b.carryover_entered_files, b.carryover_files);
  EXPECT_LE(b.carryover_entered_volume, b.carryover_volume + 1e-9);
  // Every carried file found a path once the links came back.
  EXPECT_EQ(b.failed_files, 0);
}

}  // namespace
}  // namespace postcard::runtime
