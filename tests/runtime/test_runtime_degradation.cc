// Slot-deadline watchdog and degradation ladder (DESIGN.md §9): chaos
// events force each rung — budget-truncated CG, greedy fallback,
// store-in-place deferral — and every degraded slot must stay fully
// accounted (no silent drops), bit-for-bit replayable (pivot budgets are
// deterministic) and never cheaper than the full-LP run it degraded from.
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

TEST(RuntimeDegradation, InjectedStallFallsBackWithinTheSameSlot) {
  const sim::UniformWorkload w(fig4_shaped(21));

  ControllerRuntime full{net::Topology(w.topology()), RuntimeOptions{}};
  full.add_postcard_backend();
  const RuntimeStats reference = full.replay(w);

  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  runtime.stall_solver(/*slot=*/3, /*pivot_budget=*/0);
  const RuntimeStats stats = runtime.replay(w);

  EXPECT_EQ(stats.solver_stalls, 1);
  EXPECT_EQ(stats.solver_faults, 0);
  const BackendStats& b = stats.backends[0];
  // The stalled slot committed a feasible fallback instead of blocking:
  // some rung below full LP fired exactly there. Rung counters track only
  // watchdog-armed slots, and the one-shot stall arms exactly slot 3 — the
  // other slots run the legacy (unarmed) path and count nowhere.
  EXPECT_GT(b.rung_truncated + b.rung_greedy + b.carryover_files, 0);
  EXPECT_EQ(b.rung_full, 0);
  EXPECT_GE(b.degraded_slots, 1);
  EXPECT_GE(b.degraded_cost_delta, -1e-9);
  // The cut-off solve is a loud solver failure, not a silent capacity drop.
  EXPECT_GE(b.solver_failures, 1);
  EXPECT_EQ(b.last_solver_status, "deadline_exceeded");
  expect_fully_accounted(stats, w);
  // Degradation never wins: with the same files placed, the sequential
  // fallback cannot beat the joint LP optimum.
  const BackendStats& rb = reference.backends[0];
  if (b.accepted_volume == rb.accepted_volume) {
    EXPECT_GE(b.cost_series.back(), rb.cost_series.back() - 1e-9);
  }
  EXPECT_EQ(rb.degraded_slots, 0);
  EXPECT_EQ(rb.rung_truncated + rb.rung_greedy, 0);
}

TEST(RuntimeDegradation, InjectedFaultForcesGreedyRung) {
  const sim::UniformWorkload w(fig4_shaped(22));

  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  runtime.fault_solver(/*slot=*/2, /*disable_rungs=*/1);
  const RuntimeStats stats = runtime.replay(w);

  EXPECT_EQ(stats.solver_faults, 1);
  const BackendStats& b = stats.backends[0];
  EXPECT_GT(b.rung_greedy, 0);  // the whole slot-2 batch went greedy
  EXPECT_EQ(b.rung_truncated, 0);
  EXPECT_GE(b.degraded_slots, 1);
  EXPECT_GE(b.solver_failures, 1);
  EXPECT_EQ(b.last_solver_status, "fault_injected");
  expect_fully_accounted(stats, w);
}

TEST(RuntimeDegradation, InjectedFaultForcesStoreInPlaceCarryover) {
  const sim::UniformWorkload w(fig4_shaped(23));

  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  runtime.fault_solver(/*slot=*/2, /*disable_rungs=*/2);
  const RuntimeStats stats = runtime.replay(w);

  const BackendStats& b = stats.backends[0];
  // Every slot-2 file was deferred: deadline slack permitting it carried
  // into slot 3 (one slot less to transfer), otherwise it failed loudly.
  EXPECT_EQ(b.rung_greedy, 0);
  EXPECT_GT(b.carryover_files + b.failed_files, 0);
  EXPECT_GE(b.degraded_slots, 1);
  expect_fully_accounted(stats, w);
}

TEST(RuntimeDegradation, StallScheduleReplaysBitForBit) {
  // Pivot budgets are pure arithmetic: the same chaos schedule degrades at
  // the same pivot and reproduces the entire cost series exactly.
  const sim::UniformWorkload w(fig4_shaped(24));

  auto run = [&] {
    ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
    runtime.add_postcard_backend();
    runtime.stall_solver(3, 25);
    runtime.stall_solver(6, 0);
    runtime.fault_solver(8, 1);
    return runtime.replay(w);
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
  EXPECT_EQ(b.rung_full, stats.slots_processed);
  EXPECT_EQ(b.rung_truncated, 0);
  EXPECT_EQ(b.rung_greedy, 0);
  EXPECT_EQ(b.degraded_slots, 0);
}

TEST(RuntimeDegradation, FlowBaselineDefersUnderFault) {
  // The baseline has no greedy rung: a fault defers its whole batch, which
  // carries over (or fails loudly) but never vanishes.
  const sim::UniformWorkload w(fig4_shaped(27));

  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_flow_backend();
  runtime.fault_solver(/*slot=*/1, /*disable_rungs=*/1);
  const RuntimeStats stats = runtime.replay(w);

  const BackendStats& b = stats.backends[0];
  EXPECT_GT(b.carryover_files + b.failed_files, 0);
  EXPECT_EQ(b.last_solver_status, "fault_injected");
  expect_fully_accounted(stats, w);
}

TEST(RuntimeDegradation, ThreeSlotCarryChainStaysFullyAccounted) {
  // Forced multi-slot carry-over chain: deferral faults at three
  // consecutive slots push the same files through carry_batch three times
  // (release_slot + 1, max_transfer_slots - 1 each hop). Every admitted
  // file must still land in exactly one terminal counter, and a file's
  // volume must not be re-counted per hop.
  sim::WorkloadParams p = fig4_shaped(31);
  p.deadline_min = 4;  // survives three deferrals, accepted on the fourth
  p.deadline_max = 5;
  const sim::UniformWorkload w(p);

  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  for (int slot : {2, 3, 4}) {
    runtime.fault_solver(slot, /*disable_rungs=*/2);
  }
  const RuntimeStats stats = runtime.replay(w);

  EXPECT_EQ(stats.solver_faults, 3);
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
}

}  // namespace
}  // namespace postcard::runtime
