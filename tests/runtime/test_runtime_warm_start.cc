// Cross-slot warm starts must be a pure performance optimisation: in
// deterministic mode the canonical remap (PostcardOptions::warm_start, on
// by default) reproduces the cold-start cost series bit for bit — on the
// plain Fig. 4 replay, side by side with the flow baseline, and through a
// LinkDown replan — while the stats report a nonzero warm-accept rate and
// per-start-type solve histograms.
#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include "core/postcard.h"
#include "flow/baseline.h"
#include "sim/workload.h"

namespace postcard::runtime {
namespace {

constexpr double kTol = 1e-6;

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
  p.num_slots = 12;
  p.seed = seed;
  return p;
}

core::PostcardOptions warm_off() {
  core::PostcardOptions o;
  o.warm_start = false;
  return o;
}

RuntimeStats replay_postcard(const sim::UniformWorkload& w,
                             core::PostcardOptions options,
                             RuntimeOptions runtime_options = {}) {
  ControllerRuntime runtime{net::Topology(w.topology()), runtime_options};
  runtime.add_postcard_backend(options);
  return runtime.replay(w);
}

TEST(RuntimeWarmStart, CostSeriesMatchesColdStartBitForBit) {
  const sim::UniformWorkload w(fig4_shaped(21));
  const RuntimeStats warm = replay_postcard(w, core::PostcardOptions{});
  const RuntimeStats cold = replay_postcard(w, warm_off());

  const BackendStats& bw = warm.backends[0];
  const BackendStats& bc = cold.backends[0];
  ASSERT_EQ(bw.cost_series.size(), bc.cost_series.size());
  for (std::size_t i = 0; i < bw.cost_series.size(); ++i) {
    EXPECT_EQ(bw.cost_series[i], bc.cost_series[i]) << "slot " << i;
  }
  // Same plans means identical admission and delivery accounting too.
  EXPECT_EQ(bw.accepted_volume, bc.accepted_volume);
  EXPECT_EQ(bw.rejected_volume, bc.rejected_volume);
  EXPECT_EQ(bw.delivered_volume, bc.delivered_volume);
  // The optimisation actually engaged: after the cold first slot every
  // master solve should start from the remapped basis.
  EXPECT_GT(bw.warm_accepts, 0);
  EXPECT_LT(bw.cold_starts, bw.warm_accepts);
  EXPECT_EQ(bc.warm_accepts, 0);
  // ... and it saved simplex work (phase 1 skipped on every warm solve).
  EXPECT_LT(bw.lp_iterations, bc.lp_iterations);
}

TEST(RuntimeWarmStart, FlowBaselineSideBySideIsUnaffected) {
  const sim::UniformWorkload w(fig4_shaped(22));

  std::vector<double> series[2];
  for (int pass = 0; pass < 2; ++pass) {
    ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
    runtime.add_postcard_backend(pass == 0 ? core::PostcardOptions{}
                                           : warm_off());
    runtime.add_flow_backend();
    const RuntimeStats stats = runtime.replay(w);
    ASSERT_EQ(stats.backends.size(), 2u);
    series[pass] = stats.backends[1].cost_series;
    // The flow baseline has no master LP and therefore no warm starts.
    EXPECT_EQ(stats.backends[1].warm_accepts, 0);
    EXPECT_EQ(stats.backends[1].cold_starts, 0);
    if (pass == 1) {
      EXPECT_EQ(stats.backends[0].warm_accepts, 0);
    } else {
      EXPECT_GT(stats.backends[0].warm_accepts, 0);
    }
  }
  EXPECT_EQ(series[0], series[1]);
}

TEST(RuntimeWarmStart, LinkDownReplanMatchesColdStartBitForBit) {
  // Diamond with a detour (test_runtime_failures idiom): the cheap path
  // 0 -> 1 -> 3 carries everything until link 1 -> 3 dies mid-flight and
  // the replan reroutes via 2. The warm cache sees uncommits, capacity
  // changes and synthetic re-requests — and must still be invisible.
  net::Topology t(4);
  t.set_link(0, 1, 100.0, 1.0);
  t.set_link(1, 3, 100.0, 1.0);  // link index 1: killed at slot 1
  t.set_link(1, 2, 100.0, 5.0);
  t.set_link(2, 3, 100.0, 5.0);
  t.set_link(0, 3, 100.0, 50.0);

  std::vector<double> series[2];
  BackendStats backend[2];
  for (int pass = 0; pass < 2; ++pass) {
    ControllerRuntime runtime{net::Topology(t), RuntimeOptions{}};
    runtime.add_postcard_backend(pass == 0 ? core::PostcardOptions{}
                                           : warm_off());
    ASSERT_TRUE(
        runtime.ingress().submit({1, 0, 3, 12.0, 3, 0}).admitted);
    ASSERT_TRUE(
        runtime.ingress().submit({2, 0, 3, 8.0, 3, 1}).admitted);
    ASSERT_TRUE(
        runtime.ingress().submit({3, 1, 3, 6.0, 2, 2}).admitted);
    runtime.fail_link(1, 1);
    runtime.restore_link(3, 1);
    runtime.run(5);
    const RuntimeStats stats = runtime.stats();
    backend[pass] = stats.backends[0];
    series[pass] = backend[pass].cost_series;
  }
  EXPECT_EQ(series[0], series[1]);
  EXPECT_EQ(backend[0].delivered_volume, backend[1].delivered_volume);
  EXPECT_EQ(backend[0].failed_volume, backend[1].failed_volume);
  EXPECT_EQ(backend[0].replans, backend[1].replans);
  EXPECT_GT(backend[0].warm_accepts, 0);
  // The replan rollback ran clean: every uncommit subtracted volume that
  // was actually committed.
  EXPECT_EQ(backend[0].charge_reduce_violations, 0);
  EXPECT_EQ(backend[1].charge_reduce_violations, 0);
  // Accounting stays loud and exact in both modes.
  EXPECT_NEAR(backend[0].delivered_volume + backend[0].failed_volume,
              backend[0].accepted_volume, kTol);
}

TEST(RuntimeWarmStart, SolveHistogramsSplitByStartType) {
  const sim::UniformWorkload w(fig4_shaped(24));
  const RuntimeStats warm = replay_postcard(w, core::PostcardOptions{});

  const BackendStats& b = warm.backends[0];
  // Every LP solve lands in exactly one of the split histograms, and all
  // solves (LP or not) land in the combined one.
  EXPECT_EQ(warm.solve_latency_warm.count() + warm.solve_latency_cold.count(),
            warm.solve_latency.count());
  EXPECT_GT(warm.solve_latency_warm.count(), 0);
  EXPECT_GE(warm.solve_latency_cold.count(), 1);  // at least the first slot
  EXPECT_EQ(b.warm_accepts + b.cold_starts, b.lp_solves);

  const RuntimeStats cold = replay_postcard(w, warm_off());
  EXPECT_EQ(cold.solve_latency_warm.count(), 0);
  EXPECT_EQ(cold.solve_latency_cold.count(), cold.solve_latency.count());
}

}  // namespace
}  // namespace postcard::runtime
