// No-false-positive guarantee for the plan auditor: with fail-fast audits
// armed (the runtime default) every legitimate Fig. 4-shaped run — both
// backends, chaos injections, every forced degradation rung — must
// complete with audit_checks > 0 and zero violations.
// A single false positive would throw std::logic_error and fail the replay.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/postcard.h"
#include "flow/baseline.h"
#include "runtime/runtime.h"
#include "sim/workload.h"

namespace postcard::runtime {
namespace {

// Fig. 4 shape at reduced scale (same parameters as the degradation suite).
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

void expect_audited_clean(const RuntimeStats& stats) {
  ASSERT_FALSE(stats.backends.empty());
  for (const BackendStats& b : stats.backends) {
    EXPECT_TRUE(b.audit_armed) << b.name;
    EXPECT_GT(b.audit_checks, 0) << b.name;
    EXPECT_EQ(b.audit_violations, 0) << b.name;
    EXPECT_TRUE(b.audit_reports.empty()) << b.name;
    EXPECT_GE(b.audit_seconds, 0.0) << b.name;
  }
}

TEST(AuditRuntime, FailFastIsArmedByDefaultOnBothBackends) {
  const sim::UniformWorkload w(fig4_shaped(3));
  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  runtime.add_flow_backend();
  expect_audited_clean(runtime.replay(w));
}

TEST(AuditRuntime, CleanUnderLinkFailuresAndRecovery) {
  const sim::UniformWorkload w(fig4_shaped(5));
  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  runtime.add_flow_backend();
  runtime.fail_link(/*slot=*/2, /*link=*/0);
  runtime.restore_link(/*slot=*/5, /*link=*/0);
  runtime.fail_link(/*slot=*/6, /*link=*/3);
  const RuntimeStats stats = runtime.replay(w);
  EXPECT_EQ(stats.link_events, 3);
  expect_audited_clean(stats);
}

TEST(AuditRuntime, CleanAcrossEveryForcedDegradationRung) {
  // One run per rung: budget-truncated CG (stall), greedy fallback
  // (fault >= 1), store-in-place deferral (fault >= 2). Plans committed by
  // ANY rung must satisfy the same invariants as the full LP's.
  for (int scenario = 0; scenario < 3; ++scenario) {
    const sim::UniformWorkload w(fig4_shaped(21));
    ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
    runtime.add_postcard_backend();
    switch (scenario) {
      case 0: runtime.stall_solver(/*slot=*/3, /*pivot_budget=*/0); break;
      case 1: runtime.fault_solver(/*slot=*/3, /*disable_rungs=*/1); break;
      case 2: runtime.fault_solver(/*slot=*/3, /*disable_rungs=*/2); break;
    }
    const RuntimeStats stats = runtime.replay(w);
    expect_audited_clean(stats);
    EXPECT_GE(stats.backends[0].degraded_slots, 1) << "scenario " << scenario;
  }
}

TEST(AuditRuntime, AuditOffDisarmsAndSkipsChecks) {
  const sim::UniformWorkload w(fig4_shaped(3));
  RuntimeOptions options;
  options.audit = sim::AuditControls{};  // kOff
  ControllerRuntime runtime{net::Topology(w.topology()), options};
  runtime.add_postcard_backend();
  const RuntimeStats stats = runtime.replay(w);
  EXPECT_FALSE(stats.backends[0].audit_armed);
  EXPECT_EQ(stats.backends[0].audit_checks, 0);
}

// ---- Offline controllers, driven directly -----------------------------

TEST(AuditRuntime, OfflinePostcardControllerCleanUnderFailFast) {
  const sim::UniformWorkload w(fig4_shaped(13));
  core::PostcardController controller{net::Topology(w.topology())};
  sim::AuditControls controls;
  controls.mode = sim::AuditControls::Mode::kFailFast;
  ASSERT_TRUE(controller.set_audit_controls(controls));
  long checks = 0, violations = 0;
  for (int slot = 0; slot < w.num_slots(); ++slot) {
    const sim::ScheduleOutcome outcome =
        controller.schedule(slot, w.batch(slot));
    checks += outcome.audit_checks;
    violations += outcome.audit_violations;
  }
  EXPECT_EQ(checks, w.num_slots());
  EXPECT_EQ(violations, 0);
}

TEST(AuditRuntime, OfflineFlowBaselineCleanUnderFailFast) {
  const sim::UniformWorkload w(fig4_shaped(13));
  flow::FlowBaseline baseline{net::Topology(w.topology())};
  sim::AuditControls controls;
  controls.mode = sim::AuditControls::Mode::kFailFast;
  ASSERT_TRUE(baseline.set_audit_controls(controls));
  long checks = 0, violations = 0;
  for (int slot = 0; slot < w.num_slots(); ++slot) {
    const sim::ScheduleOutcome outcome = baseline.schedule(slot, w.batch(slot));
    checks += outcome.audit_checks;
    violations += outcome.audit_violations;
  }
  EXPECT_EQ(checks, w.num_slots());
  EXPECT_EQ(violations, 0);
}

TEST(AuditRuntime, AuditsAreOffByDefaultOnOfflineControllers) {
  const sim::UniformWorkload w(fig4_shaped(3));
  core::PostcardController controller{net::Topology(w.topology())};
  const sim::ScheduleOutcome outcome = controller.schedule(0, w.batch(0));
  EXPECT_EQ(outcome.audit_checks, 0);
}

}  // namespace
}  // namespace postcard::runtime
