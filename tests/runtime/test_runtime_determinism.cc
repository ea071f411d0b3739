// Determinism guarantee: the event-driven runtime reproduces the offline
// batch replay of sim::run_simulation bit-for-bit — same schedule() call
// sequence, so identical cost series for every Postcard backend, alone
// and side by side, on a Fig. 4-shaped workload (paper Sec. VII
// parameters at reduced scale).
#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include "core/postcard.h"
#include "sim/simulator.h"
#include "sim/workload.h"

namespace postcard::runtime {
namespace {

// Fig. 4 shape: ample capacity (c = 100 GB/tbar), deadlines U[1,3], unit
// costs U[1,10], sizes U[10,100] GB — scaled down in node/slot count so the
// test stays fast (the bench covers the full figure).
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

TEST(RuntimeDeterminism, PostcardMatchesRunSimulationBitForBit) {
  const sim::UniformWorkload w(fig4_shaped(11));

  core::PostcardController offline{net::Topology(w.topology())};
  const sim::RunResult reference = sim::run_simulation(offline, w);

  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  const RuntimeStats stats = runtime.replay(w);

  ASSERT_EQ(stats.backends.size(), 1u);
  const BackendStats& b = stats.backends[0];
  ASSERT_EQ(b.cost_series.size(), reference.cost_series.size());
  for (std::size_t i = 0; i < b.cost_series.size(); ++i) {
    EXPECT_EQ(b.cost_series[i], reference.cost_series[i]) << "slot " << i;
  }
  EXPECT_EQ(b.cost_series.back(), reference.final_cost_per_interval);
  EXPECT_EQ(b.lp_iterations, reference.lp_iterations);
  EXPECT_EQ(b.lp_solves, reference.lp_solves);
  EXPECT_EQ(b.rejected_volume, reference.rejected_volume);
  // Nothing was rejected at the ingress (the structural test is strictly
  // weaker than the solver's admission), so the policies saw identical
  // batches.
  EXPECT_EQ(stats.ingress_rejected, 0);
  EXPECT_EQ(stats.admitted, stats.submitted);
}

TEST(RuntimeDeterminism, BothPoliciesSideBySideStillMatch) {
  // Per-backend dispatch must not perturb either backend's solve sequence:
  // each one's series equals its own offline replay, bit for bit.
  const sim::UniformWorkload w(fig4_shaped(13));
  core::PostcardOptions no_storage;
  no_storage.allow_storage = false;

  core::PostcardController offline_pc{net::Topology(w.topology())};
  core::PostcardController offline_ns{net::Topology(w.topology()), no_storage};
  const sim::RunResult ref_pc = sim::run_simulation(offline_pc, w);
  const sim::RunResult ref_ns = sim::run_simulation(offline_ns, w);

  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  runtime.add_postcard_backend(no_storage);
  const RuntimeStats stats = runtime.replay(w);

  ASSERT_EQ(stats.backends.size(), 2u);
  EXPECT_EQ(stats.backends[1].name, "postcard (no storage)");
  EXPECT_EQ(stats.backends[0].cost_series, ref_pc.cost_series);
  EXPECT_EQ(stats.backends[1].cost_series, ref_ns.cost_series);
  EXPECT_EQ(stats.backends[0].lp_iterations, ref_pc.lp_iterations);
  EXPECT_EQ(stats.backends[1].lp_iterations, ref_ns.lp_iterations);
}

}  // namespace
}  // namespace postcard::runtime
