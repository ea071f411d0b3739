// Acceptance gate for reachability-pruned pricing (DESIGN.md §12):
// toggling PostcardOptions::prune_pricing must not move a single bit of the
// trajectory — identical cost series, plans, and LP iteration counts — on
// the paper's 20-DC complete-graph workload, through LinkDown replans, on
// the Fat-Tree shapes from net/generators.h, and under the storage ablation,
// whose endpoint-only holding rule the pruned arc lists apply as well. The
// fail-fast plan auditor stays armed throughout, so any committed-plan
// divergence throws instead of shifting a cost silently.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/postcard.h"
#include "net/generators.h"
#include "runtime/runtime.h"
#include "sim/workload.h"

namespace postcard::runtime {
namespace {

sim::WorkloadParams twenty_dc(std::uint64_t seed) {
  sim::WorkloadParams p;
  p.num_datacenters = 20;
  p.link_capacity = 100.0;
  p.cost_min = 1.0;
  p.cost_max = 10.0;
  p.files_per_slot_min = 1;
  p.files_per_slot_max = 5;
  p.size_min = 10.0;
  p.size_max = 100.0;
  p.deadline_min = 1;
  p.deadline_max = 3;
  p.num_slots = 6;
  p.seed = seed;
  return p;
}

struct Fault {
  int slot;
  int link;
};

/// One replay with both Postcard backends on pruned pricing or both on the
/// full sweep: the paper's Postcard and the storage ablation
/// (allow_storage = false).
RuntimeStats replay(const sim::WorkloadGenerator& w, bool pruned,
                    const std::vector<Fault>& faults = {}) {
  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  core::PostcardOptions options;
  options.prune_pricing = pruned;
  runtime.add_postcard_backend(options);
  core::PostcardOptions ablation = options;
  ablation.allow_storage = false;
  runtime.add_postcard_backend(ablation);
  for (const Fault& f : faults) runtime.fail_link(f.slot, f.link);
  return runtime.replay(w);
}

void expect_identical(const BackendStats& pruned, const BackendStats& full) {
  ASSERT_EQ(pruned.cost_series.size(), full.cost_series.size());
  for (std::size_t i = 0; i < full.cost_series.size(); ++i) {
    EXPECT_EQ(pruned.cost_series[i], full.cost_series[i]) << "slot " << i;
  }
  // Same plans implies the same everything downstream; pin the solver-side
  // counters too so a lucky cost tie cannot mask a divergent solve path.
  EXPECT_EQ(pruned.lp_iterations, full.lp_iterations);
  EXPECT_EQ(pruned.lp_solves, full.lp_solves);
  EXPECT_EQ(pruned.accepted_files, full.accepted_files);
  EXPECT_EQ(pruned.rejected_files, full.rejected_files);
  EXPECT_EQ(pruned.rejected_volume, full.rejected_volume);
  EXPECT_EQ(pruned.replans, full.replans);
  EXPECT_EQ(pruned.replanned_volume, full.replanned_volume);
  EXPECT_EQ(pruned.failed_files, full.failed_files);
  EXPECT_EQ(pruned.warm_accepts, full.warm_accepts);
  EXPECT_EQ(pruned.audit_violations, 0);
  EXPECT_EQ(full.audit_violations, 0);
}

/// Both backends of a pruned and a full-sweep replay agree bit for bit.
/// The storage ablation must have accepted a file, or its comparison would
/// hold vacuously.
void expect_runs_identical(const RuntimeStats& pruned,
                           const RuntimeStats& full) {
  ASSERT_EQ(pruned.backends.size(), 2u);
  ASSERT_EQ(full.backends.size(), 2u);
  expect_identical(pruned.backends[0], full.backends[0]);
  expect_identical(pruned.backends[1], full.backends[1]);
  EXPECT_GT(pruned.backends[1].accepted_files, 0);
}

TEST(SparseEquivalence, TwentyDcCostSeriesBitForBit) {
  const sim::UniformWorkload w(twenty_dc(21));
  const RuntimeStats s = replay(w, /*pruned=*/true);
  const RuntimeStats d = replay(w, /*pruned=*/false);
  expect_runs_identical(s, d);
}

TEST(SparseEquivalence, LinkDownReplanStaysBitForBit) {
  const sim::UniformWorkload w(twenty_dc(22));
  // Down a whole swath of links mid-run so committed in-flight plans are
  // invalidated and the LinkDown replan path actually fires, with a second
  // wave two slots later while the first replan's commits are still live.
  std::vector<Fault> faults;
  for (int link = 0; link < 40; ++link) faults.push_back({2, link});
  for (int link = 40; link < 80; ++link) faults.push_back({4, link});
  const RuntimeStats s = replay(w, /*pruned=*/true, faults);
  const RuntimeStats d = replay(w, /*pruned=*/false, faults);
  expect_runs_identical(s, d);
  // The faults must have perturbed the trajectory, or this test proves
  // nothing: compare against the fault-free run of the same seed.
  const RuntimeStats clean = replay(w, /*pruned=*/true);
  EXPECT_NE(s.backends[0].cost_series, clean.backends[0].cost_series);
}

TEST(SparseEquivalence, FatTreeWorkloadBitForBit) {
  // 45-site Fat-Tree (diameter 4): files are multi-hop by construction, so
  // the reachability pruning actually bites — unroutable (deadline < hops)
  // files must reject identically, routable ones must route identically.
  sim::WorkloadParams p = twenty_dc(23);
  p.files_per_slot_max = 3;
  p.deadline_min = 2;  // some structurally unroutable files on purpose
  p.deadline_max = 5;
  p.num_slots = 4;
  const sim::TopologyWorkload w(
      net::fat_tree(6, 100.0,
                    [](int a, int b) { return 1.0 + 0.05 * a + 0.001 * b; }),
      p);
  ASSERT_EQ(w.topology().num_datacenters(), 45);
  const RuntimeStats s = replay(w, /*pruned=*/true);
  const RuntimeStats d = replay(w, /*pruned=*/false);
  expect_runs_identical(s, d);
}

TEST(SparseEquivalence, RepeatedSparseRunsAreIdentical) {
  // The hop matrix is per-controller state (a plain vector, nothing
  // shared): fresh controllers replaying the same workload may not see
  // each other.
  const sim::UniformWorkload w(twenty_dc(24));
  const RuntimeStats s = replay(w, /*pruned=*/true);
  const RuntimeStats again = replay(w, /*pruned=*/true);
  EXPECT_EQ(s.backends[0].cost_series, again.backends[0].cost_series);
}

}  // namespace
}  // namespace postcard::runtime
