// Acceptance gate for the sparse incremental time-expanded graph (DESIGN.md
// §12): toggling PostcardOptions::use_sparse_graph must not move a single
// bit of the trajectory — identical cost series, plans, and LP iteration
// counts — on the paper's 20-DC complete-graph workload, through LinkDown
// replans, and on the Fat-Tree shapes from net/generators.h. The fail-fast
// plan auditor stays armed throughout, so any committed-plan divergence
// throws instead of shifting a cost silently.
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

/// One replay with the Postcard backend pinned to the requested graph
/// backend, plus a no-storage Postcard backend on the default graph riding
/// along as a control, to prove the dispatch path is unperturbed.
RuntimeStats replay(const sim::WorkloadGenerator& w, bool sparse,
                    const std::vector<Fault>& faults = {},
                    bool with_control = true) {
  ControllerRuntime runtime{net::Topology(w.topology()), RuntimeOptions{}};
  core::PostcardOptions options;
  options.use_sparse_graph = sparse;
  runtime.add_postcard_backend(options);
  if (with_control) {
    core::PostcardOptions control;
    control.allow_storage = false;
    runtime.add_postcard_backend(control);
  }
  for (const Fault& f : faults) runtime.fail_link(f.slot, f.link);
  return runtime.replay(w);
}

void expect_identical(const BackendStats& sparse, const BackendStats& dense) {
  ASSERT_EQ(sparse.cost_series.size(), dense.cost_series.size());
  for (std::size_t i = 0; i < dense.cost_series.size(); ++i) {
    EXPECT_EQ(sparse.cost_series[i], dense.cost_series[i]) << "slot " << i;
  }
  // Same plans implies the same everything downstream; pin the solver-side
  // counters too so a lucky cost tie cannot mask a divergent solve path.
  EXPECT_EQ(sparse.lp_iterations, dense.lp_iterations);
  EXPECT_EQ(sparse.lp_solves, dense.lp_solves);
  EXPECT_EQ(sparse.accepted_files, dense.accepted_files);
  EXPECT_EQ(sparse.rejected_files, dense.rejected_files);
  EXPECT_EQ(sparse.rejected_volume, dense.rejected_volume);
  EXPECT_EQ(sparse.replans, dense.replans);
  EXPECT_EQ(sparse.replanned_volume, dense.replanned_volume);
  EXPECT_EQ(sparse.failed_files, dense.failed_files);
  EXPECT_EQ(sparse.warm_accepts, dense.warm_accepts);
  EXPECT_EQ(sparse.audit_violations, 0);
  EXPECT_EQ(dense.audit_violations, 0);
}

TEST(SparseEquivalence, TwentyDcCostSeriesBitForBit) {
  const sim::UniformWorkload w(twenty_dc(21));
  const RuntimeStats s = replay(w, /*sparse=*/true);
  const RuntimeStats d = replay(w, /*sparse=*/false);
  ASSERT_EQ(s.backends.size(), 2u);
  expect_identical(s.backends[0], d.backends[0]);
  // The control runs the same options in both runs, so toggling the first
  // backend's graph must leave its series byte-identical.
  EXPECT_EQ(s.backends[1].cost_series, d.backends[1].cost_series);
}

TEST(SparseEquivalence, LinkDownReplanStaysBitForBit) {
  const sim::UniformWorkload w(twenty_dc(22));
  // Down a whole swath of links mid-run so committed in-flight plans are
  // invalidated and the LinkDown replan path actually fires, with a second
  // wave two slots later while the first replan's commits are still live.
  std::vector<Fault> faults;
  for (int link = 0; link < 40; ++link) faults.push_back({2, link});
  for (int link = 40; link < 80; ++link) faults.push_back({4, link});
  const RuntimeStats s = replay(w, /*sparse=*/true, faults);
  const RuntimeStats d = replay(w, /*sparse=*/false, faults);
  expect_identical(s.backends[0], d.backends[0]);
  EXPECT_EQ(s.backends[1].cost_series, d.backends[1].cost_series);
  // The faults must have perturbed the trajectory, or this test proves
  // nothing: compare against the fault-free run of the same seed.
  const RuntimeStats clean = replay(w, /*sparse=*/true);
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
  const RuntimeStats s = replay(w, /*sparse=*/true, {}, /*with_control=*/false);
  const RuntimeStats d =
      replay(w, /*sparse=*/false, {}, /*with_control=*/false);
  expect_identical(s.backends[0], d.backends[0]);
}

TEST(SparseEquivalence, RepeatedSparseRunsAreIdentical) {
  // The arena is per-controller state (plain vectors, nothing shared):
  // fresh controllers replaying the same workload may not see each other.
  const sim::UniformWorkload w(twenty_dc(24));
  const RuntimeStats s = replay(w, /*sparse=*/true);
  const RuntimeStats again = replay(w, /*sparse=*/true);
  EXPECT_EQ(s.backends[0].cost_series, again.backends[0].cost_series);
}

}  // namespace
}  // namespace postcard::runtime
