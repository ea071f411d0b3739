// Golden trajectory: pins the exact solver trajectory of two seeded
// controller runs to recorded constants — total simplex pivots, admission
// and ladder counts, and the cost-per-interval series as IEEE-754 bit
// patterns.
//
// Every other bit-for-bit test compares two paths of one binary (sparse vs
// dense graph, restored vs uninterrupted), so a change that moves
// every path's pivot sequence alike passes them all. This one compares
// against numbers recorded from the default build, so a kernel rewrite
// that claims an identical pivot sequence (hyper-sparse solves, pattern-
// driven ratio tests, reordered pricing scans) has to prove it.
//
// Two shapes:
//   * the paper's Fig. 4 shape at paper scale (20-DC complete overlay,
//     1-20 files/slot, deadlines U[1,3]), solved to optimum every slot;
//   * fat_tree(6) at 200 files/slot under a 2,000-pivot slot budget — the
//     basis fills in enough there that the LU solves cross their dense
//     fallback, and the budget cut pins the pivot count at which the
//     degradation ladder takes over.
//
// On a mismatch the test prints the observed trajectory in initializer
// form, so a deliberate re-baseline is a copy-paste that shows up in review.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/generators.h"
#include "runtime/runtime.h"
#include "sim/workload.h"

namespace postcard::runtime {
namespace {

struct Trajectory {
  long pivots = 0;
  long accepted = 0;
  long rejected = 0;
  long degraded = 0;
  long greedy = 0;
  std::vector<std::uint64_t> cost_bits;  // cost_per_interval after each slot
};

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

Trajectory run(const sim::WorkloadGenerator& workload,
               const RuntimeOptions& options) {
  ControllerRuntime runtime{net::Topology(workload.topology()), options};
  runtime.add_postcard_backend();
  const RuntimeStats stats = runtime.replay(workload);
  const BackendStats& b = stats.backends.at(0);
  Trajectory t;
  t.pivots = b.lp_iterations;
  t.accepted = b.accepted_files;
  t.rejected = b.rejected_files;
  t.degraded = b.degraded_slots;
  t.greedy = b.rung_greedy;
  for (double c : b.cost_series) t.cost_bits.push_back(bits_of(c));
  return t;
}

std::string as_initializer(const Trajectory& t) {
  std::string s = "{" + std::to_string(t.pivots) + ", " +
                  std::to_string(t.accepted) + ", " +
                  std::to_string(t.rejected) + ", " +
                  std::to_string(t.degraded) + ", " +
                  std::to_string(t.greedy) + ",\n {";
  for (std::size_t i = 0; i < t.cost_bits.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxULL",
                  static_cast<unsigned long long>(t.cost_bits[i]));
    s += (i % 3 == 0 ? "\n  " : " ") + std::string(buf) + ",";
  }
  return s + "}}";
}

void expect_golden(const Trajectory& got, const Trajectory& want) {
  EXPECT_EQ(got.pivots, want.pivots);
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.greedy, want.greedy);
  EXPECT_EQ(got.cost_bits.size(), want.cost_bits.size());
  for (std::size_t s = 0;
       s < std::min(got.cost_bits.size(), want.cost_bits.size()); ++s) {
    EXPECT_EQ(got.cost_bits[s], want.cost_bits[s]) << "slot " << s;
  }
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "observed trajectory:\n" << as_initializer(got);
  }
}

TEST(GoldenTrajectory, PaperShapeTwentyDcComplete) {
  sim::WorkloadParams p;
  p.num_datacenters = 20;
  p.link_capacity = 100.0;
  p.cost_min = 1.0;
  p.cost_max = 10.0;
  p.files_per_slot_min = 1;
  p.files_per_slot_max = 20;
  p.size_min = 10.0;
  p.size_max = 100.0;
  p.deadline_min = 1;
  p.deadline_max = 3;
  p.num_slots = 30;
  p.seed = 7;
  const sim::UniformWorkload workload(p);

  const Trajectory want = {16621, 353, 1, 0, 0,
      {0x408451515f61484bULL, 0x40a39c19b097bddfULL, 0x40a7a54180d1175cULL,
       0x40ab26299b8ca347ULL, 0x40b70a1865493b9eULL, 0x40c2493d4b04a00bULL,
       0x40c688768ec8f231ULL, 0x40c73e225379047dULL, 0x40c9ba8db6570636ULL,
       0x40cc93ee6db2157cULL, 0x40cd9899f799a7e5ULL, 0x40ce5f1068d1f766ULL,
       0x40cfdf4b5aacbbccULL, 0x40d0a52750c82418ULL, 0x40d20456ad47d084ULL,
       0x40d42122efab74e4ULL, 0x40d5cc6e537ba2ffULL, 0x40d693a483d603d5ULL,
       0x40d693a483d60859ULL, 0x40d6e8ed9af7762eULL, 0x40d840c2ee06ce20ULL,
       0x40d8b72bdf834d0cULL, 0x40da9714a2ddd7a4ULL, 0x40db5cffec9a98c2ULL,
       0x40dbd0b8184cb0c6ULL, 0x40dde300697d4e79ULL, 0x40de4281ee790c51ULL,
       0x40e03d3fc4f1adbbULL, 0x40e0a4c9d32a4237ULL, 0x40e119d89f27d3d1ULL}};
  expect_golden(run(workload, RuntimeOptions{}), want);
}

TEST(GoldenTrajectory, FatTree6UnderPivotBudget) {
  sim::WorkloadParams p;
  p.link_capacity = 100.0;
  p.files_per_slot_min = 200;
  p.files_per_slot_max = 200;
  p.size_min = 10.0;
  p.size_max = 50.0;
  p.deadline_min = 4;  // Fat-Tree diameter
  p.deadline_max = 6;
  p.num_slots = 5;
  p.seed = 7;
  const sim::TopologyWorkload workload(
      net::fat_tree(6, p.link_capacity,
                    [](int a, int b) {
                      return 1.0 + ((a * 131 + b * 17) % 90) / 10.0;
                    }),
      p);
  RuntimeOptions options;
  options.slot_pivot_budget = 2000;

  const Trajectory want = {9970, 938, 0, 5, 292,
      {0x40e9764ab8ad8514ULL, 0x40f1093313f9ae07ULL, 0x40f4f8a3ff2963c6ULL,
       0x40f6ee1fa939ae4aULL, 0x40f84616979acf17ULL}};
  expect_golden(run(workload, options), want);
}

}  // namespace
}  // namespace postcard::runtime
