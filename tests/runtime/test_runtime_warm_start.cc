// One first-master rule: every Postcard solve starts its round-0 master
// from the simplex's crash basis, which is the canonical one, from a fresh
// controller's first slot on, and the stats count each round-0 master that
// ran no phase 1 — on every backend, with or without store-and-forward.
#include "runtime/runtime.h"

#include <gtest/gtest.h>

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

/// Replays `w` on two backends: Postcard and its no-storage variant.
RuntimeStats replay(const sim::UniformWorkload& w) {
  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  runtime.add_postcard_backend();
  core::PostcardOptions no_storage;
  no_storage.allow_storage = false;
  runtime.add_postcard_backend(no_storage);
  return runtime.replay(w);
}

TEST(RuntimeWarmStart, SolveHistogramsSplitByStartType) {
  const sim::UniformWorkload w(fig4_shaped(24));
  const RuntimeStats stats = replay(w);
  ASSERT_EQ(stats.backends.size(), 2u);

  // One solve histogram: each backend's solve of each slot lands in it.
  EXPECT_EQ(stats.solve_latency.count(),
            2 * static_cast<std::int64_t>(stats.slots_processed));

  // The start-type split lives on in the counters. Slot 0 of a fresh
  // controller is seeded like every later slot, so no solve pays phase 1.
  for (const BackendStats& b : stats.backends) {
    EXPECT_GT(b.lp_solves, 0) << b.name;
    EXPECT_EQ(b.warm_accepts + b.cold_starts, b.lp_solves) << b.name;
    EXPECT_EQ(b.cold_starts, 0) << b.name;
    EXPECT_EQ(b.warm_accepts, b.lp_solves) << b.name;
  }
}

TEST(RuntimeWarmStart, LinkDownReplanRollsBackCleanly) {
  // Diamond with a detour (test_runtime_failures idiom): the cheap path
  // 0 -> 1 -> 3 carries everything until link 1 -> 3 dies mid-flight and
  // the replan reroutes via 2. The round-0 masters see uncommits, capacity
  // changes and synthetic re-requests.
  net::Topology t(4);
  t.set_link(0, 1, 100.0, 1.0);
  t.set_link(1, 3, 100.0, 1.0);  // link index 1: killed at slot 1
  t.set_link(1, 2, 100.0, 5.0);
  t.set_link(2, 3, 100.0, 5.0);
  t.set_link(0, 3, 100.0, 50.0);

  ControllerRuntime runtime{net::Topology(t), RuntimeOptions{}};
  runtime.add_postcard_backend();
  ASSERT_TRUE(runtime.ingress().submit({1, 0, 3, 12.0, 3, 0}).admitted);
  ASSERT_TRUE(runtime.ingress().submit({2, 0, 3, 8.0, 3, 1}).admitted);
  ASSERT_TRUE(runtime.ingress().submit({3, 1, 3, 6.0, 2, 2}).admitted);
  runtime.fail_link(1, 1);
  runtime.restore_link(3, 1);
  runtime.run(5);
  const BackendStats backend = runtime.stats().backends[0];

  EXPECT_GT(backend.replans, 0);
  EXPECT_GT(backend.warm_accepts, 0);
  EXPECT_EQ(backend.cold_starts, 0);
  // The replan rollback ran clean: every uncommit subtracted volume that
  // was actually committed.
  EXPECT_EQ(backend.charge_reduce_violations, 0);
  // Accounting stays loud and exact.
  EXPECT_NEAR(backend.delivered_volume + backend.failed_volume,
              backend.accepted_volume, kTol);
}

}  // namespace
}  // namespace postcard::runtime
