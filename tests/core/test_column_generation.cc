// Column generation must agree with the direct arc-flow formulation: both
// optimize over the same polytope (any DAG flow decomposes into path flows).
#include "core/column_generation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/formulation.h"
#include "lp/certificate.h"
#include "lp/simplex.h"

namespace postcard::core {
namespace {

net::FileRequest file(int id, int s, int d, double size, int deadline, int slot) {
  return {id, s, d, size, deadline, slot};
}

// The direct arc-flow optimum, proven by its certificate rather than
// assumed from the solver's status flag.
double direct_optimum(const net::Topology& t, const charging::ChargeState& charge,
                      int slot, const std::vector<net::FileRequest>& files,
                      bool allow_storage = true) {
  FormulationOptions fo;
  fo.allow_storage = allow_storage;
  TimeExpandedFormulation f(t, charge, slot, files, fo);
  const auto sol = lp::RevisedSimplex().solve(f.model());
  EXPECT_EQ(sol.status, lp::SolveStatus::kOptimal);
  const lp::Certificate cert = lp::certify(f.model(), sol);
  EXPECT_LE(cert.primal_violation, 1e-7);
  EXPECT_LE(cert.dual_infeasibility, 1e-7);
  EXPECT_LE(std::abs(cert.relative_gap), 1e-7);
  return sol.objective;
}

PathSolveOptions tight_options() {
  PathSolveOptions po;
  po.relative_gap = 1e-9;  // run to (near) exactness on these small cases
  po.stall_rounds = 200;
  return po;
}

TEST(ColumnGeneration, MatchesDirectFormulationOnFig1) {
  net::Topology t(3);
  t.set_link(1, 2, 1000.0, 10.0);
  t.set_link(1, 0, 1000.0, 1.0);
  t.set_link(0, 2, 1000.0, 3.0);
  charging::ChargeState charge(t.num_links());
  const std::vector<net::FileRequest> batch = {file(1, 1, 2, 6.0, 3, 0)};
  const auto r = solve_postcard_by_paths(t, charge, 0, batch, tight_options());
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, 12.0, 1e-5);
  EXPECT_NEAR(r.objective, direct_optimum(t, charge, 0, batch), 1e-5);
}

TEST(ColumnGeneration, MatchesDirectFormulationOnRandomInstances) {
  std::mt19937 rng(404);
  std::uniform_real_distribution<double> cost(1.0, 10.0);
  std::uniform_real_distribution<double> size(5.0, 30.0);
  std::uniform_int_distribution<int> deadline(1, 4);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 4 + trial % 3;
    auto t = net::Topology::complete(n, 40.0, [&](int, int) { return cost(rng); });
    charging::ChargeState charge(t.num_links());
    // Prior traffic so free-capacity reuse matters.
    charge.commit(0, 0, 15.0);
    charge.commit(1, 0, 10.0);
    std::vector<net::FileRequest> batch;
    const int num_files = 2 + trial % 3;
    for (int k = 0; k < num_files; ++k) {
      const int s = static_cast<int>(rng() % n);
      int d = static_cast<int>(rng() % n);
      if (d == s) d = (d + 1) % n;
      batch.push_back(file(k, s, d, size(rng), deadline(rng), 1));
    }
    const auto r = solve_postcard_by_paths(t, charge, 1, batch, tight_options());
    ASSERT_TRUE(r.ok) << "trial " << trial;
    ASSERT_TRUE(r.feasible) << "trial " << trial;
    const double direct = direct_optimum(t, charge, 1, batch);
    EXPECT_NEAR(r.objective, direct, 1e-4 * (1.0 + direct)) << "trial " << trial;
    EXPECT_GE(r.objective + 1e-6, r.lower_bound) << "trial " << trial;
  }
}

TEST(ColumnGeneration, PlansAreValidStoreAndForwardSchedules) {
  auto t = net::Topology::complete(5, 20.0, [](int i, int j) {
    return 1.0 + ((i * 5 + j) % 7);
  });
  charging::ChargeState charge(t.num_links());
  const std::vector<net::FileRequest> batch = {
      file(1, 0, 4, 30.0, 3, 2), file(2, 1, 3, 25.0, 2, 2),
      file(3, 2, 0, 18.0, 4, 2)};
  const auto r = solve_postcard_by_paths(t, charge, 2, batch, tight_options());
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.plans.size(), batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    std::string err;
    EXPECT_TRUE(verify_plan(r.plans[k], batch[k], t, 1e-5, &err))
        << "file " << k << ": " << err;
  }
}

TEST(ColumnGeneration, DetectsUnroutableFile) {
  net::Topology t(2);
  t.set_link(0, 1, 5.0, 1.0);
  charging::ChargeState charge(t.num_links());
  // 100 GB with a 2-slot deadline over a 5 GB/slot link: at most 10 route.
  const std::vector<net::FileRequest> batch = {file(7, 0, 1, 100.0, 2, 0)};
  const auto r = solve_postcard_by_paths(t, charge, 0, batch, tight_options());
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.feasible);
  ASSERT_EQ(r.unrouted.size(), 1u);
  EXPECT_NEAR(r.unrouted[0], 90.0, 1e-4);
  // The result names the unrouted file by id, by the same rule as feasible.
  EXPECT_EQ(r.unrouted_ids, std::vector<int>{7});
}

TEST(ColumnGeneration, NoStorageAblationMatchesDirect) {
  auto t = net::Topology::complete(4, 15.0, [](int i, int j) {
    return 2.0 + ((i + 2 * j) % 5);
  });
  charging::ChargeState charge(t.num_links());
  const std::vector<net::FileRequest> batch = {file(1, 0, 3, 20.0, 3, 0),
                                               file(2, 1, 2, 12.0, 2, 0)};
  PathSolveOptions po = tight_options();
  po.allow_storage = false;
  const auto r = solve_postcard_by_paths(t, charge, 0, batch, po);
  ASSERT_TRUE(r.ok);
  ASSERT_TRUE(r.feasible);
  const double direct = direct_optimum(t, charge, 0, batch, false);
  EXPECT_NEAR(r.objective, direct, 1e-4 * (1.0 + direct));
}

TEST(ColumnGeneration, RespectsCommittedCapacity) {
  net::Topology t(2);
  t.set_link(0, 1, 10.0, 1.0);
  charging::ChargeState charge(t.num_links());
  charge.commit(0, 0, 10.0);  // slot 0 fully committed
  const std::vector<net::FileRequest> batch = {file(1, 0, 1, 10.0, 1, 0)};
  const auto r = solve_postcard_by_paths(t, charge, 0, batch, tight_options());
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.feasible);  // no residual capacity in the only usable slot
}

TEST(ColumnGeneration, EmptyBatch) {
  net::Topology t(2);
  t.set_link(0, 1, 10.0, 2.0);
  charging::ChargeState charge(t.num_links());
  charge.commit(0, 0, 4.0);
  const auto r = solve_postcard_by_paths(t, charge, 1, {});
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, 8.0, 1e-9);
}

// ---- Canonical round-0 basis across slots ---------------------------------

void commit_plans(charging::ChargeState& charge,
                  const std::vector<FilePlan>& plans) {
  for (const FilePlan& plan : plans) {
    for (const Transfer& t : plan.transfers) {
      if (!t.storage()) charge.commit(t.link, t.slot, t.volume);
    }
  }
}

std::vector<net::FileRequest> slot_batch(int slot) {
  return {file(slot * 10 + 1, 0, 3, 22.0 + slot, 3, slot),
          file(slot * 10 + 2, 1, 3, 14.0, 2, slot),
          file(slot * 10 + 3, 2, 3, 9.0 + 2 * slot, 3, slot)};
}

// The stopping rule's certificate: within relative_gap of the true optimum.
void expect_within_gap(const PathSolveResult& r, double direct, int slot) {
  const double gap = PathSolveOptions{}.relative_gap;
  EXPECT_NEAR(r.objective, direct, gap * (1.0 + std::abs(direct)))
      << "slot " << slot;
}

TEST(ColumnGeneration, EverySlotAcceptsTheCanonicalSeedAtTheDirectOptimum) {
  auto t = net::Topology::complete(4, 60.0, [](int i, int j) {
    return 1.0 + ((3 * i + j) % 6);
  });
  // One controller history over 4 slots. The simplex's crash finds the
  // canonical basis on every round-0 master, slot 0 included, and it is
  // feasible, so phase 1 is skipped on every slot.
  charging::ChargeState charge(t.num_links());
  for (int slot = 0; slot < 4; ++slot) {
    const auto batch = slot_batch(slot);
    const auto r = solve_postcard_by_paths(t, charge, slot, batch);
    ASSERT_TRUE(r.ok && r.feasible) << "slot " << slot;
    EXPECT_TRUE(r.warm_accepted) << "slot " << slot;
    expect_within_gap(r, direct_optimum(t, charge, slot, batch), slot);
    commit_plans(charge, r.plans);
  }
}

TEST(ColumnGeneration, CapacityDropBetweenSlotsStillReachesTheDirectOptimum) {
  // A capacity change between slots leaves committed volume above the new
  // capacity. The crash basis still needs no phase 1 and the slot still
  // reaches the optimum of the changed network.
  net::Topology t(3);
  t.set_link(0, 1, 40.0, 1.0);
  t.set_link(1, 2, 40.0, 2.0);
  t.set_link(0, 2, 40.0, 6.0);
  charging::ChargeState charge(t.num_links());
  const std::vector<net::FileRequest> first_batch = {file(1, 0, 2, 35.0, 2, 0)};
  const auto first = solve_postcard_by_paths(t, charge, 0, first_batch);
  ASSERT_TRUE(first.ok && first.feasible);
  EXPECT_TRUE(first.warm_accepted);
  expect_within_gap(first, direct_optimum(t, charge, 0, first_batch), 0);
  commit_plans(charge, first.plans);

  t.set_capacity(1, 5.0);  // link 1 -> 2 nearly gone
  const std::vector<net::FileRequest> batch = {file(2, 0, 2, 20.0, 2, 1)};
  const auto second = solve_postcard_by_paths(t, charge, 1, batch);
  ASSERT_TRUE(second.ok && second.feasible);
  EXPECT_TRUE(second.warm_accepted);
  expect_within_gap(second, direct_optimum(t, charge, 1, batch), 1);
}

}  // namespace
}  // namespace postcard::core
