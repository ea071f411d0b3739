// Warm starts: a hand-built basis reused on an extended model (the
// column-generation pattern) must reach the same optimum, typically in far
// fewer iterations, and incompatible snapshots must fall back to the cold
// start silently.
#include <gtest/gtest.h>

#include "lp/simplex.h"

namespace postcard::lp {
namespace {

LpModel base_model() {
  // min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (optimal -36).
  LpModel m;
  const int x = m.add_variable(0.0, kInfinity, -3.0);
  const int y = m.add_variable(0.0, kInfinity, -5.0);
  int r1 = m.add_constraint(-kInfinity, 4.0);
  m.add_coefficient(r1, x, 1.0);
  int r2 = m.add_constraint(-kInfinity, 12.0);
  m.add_coefficient(r2, y, 2.0);
  int r3 = m.add_constraint(-kInfinity, 18.0);
  m.add_coefficient(r3, x, 3.0);
  m.add_coefficient(r3, y, 2.0);
  return m;
}

using WS = RevisedSimplex::WarmStart;

/// The optimal basis of base_model(), written out by hand: x = 2 and y = 6
/// basic, row 0 (x <= 4) slack on its own logical, rows 1 and 2 binding.
WS base_optimum() {
  WS w;
  w.col_status = {WS::kBasic, WS::kBasic};
  w.row_status = {WS::kBasic, WS::kAtUpper, WS::kAtUpper};
  w.basis = {-1, 0, 1};
  return w;
}

TEST(WarmStart, ReuseOnIdenticalModelCostsNoPivots) {
  LpModel m = base_model();
  RevisedSimplex solver;
  const Solution cold = solver.solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  const WS warm = base_optimum();

  RevisedSimplex second;
  const Solution hot = second.solve(m, &warm);
  ASSERT_EQ(hot.status, SolveStatus::kOptimal);
  EXPECT_NEAR(hot.objective, cold.objective, 1e-9);
  EXPECT_EQ(hot.iterations, 0);
}

TEST(WarmStart, ExtendedModelWithNewColumn) {
  LpModel m = base_model();
  RevisedSimplex solver;
  ASSERT_EQ(solver.solve(m).status, SolveStatus::kOptimal);
  const WS warm = base_optimum();

  // Append an attractive new column touching row 3.
  const int z = m.add_variable(0.0, 2.0, -10.0);
  m.add_coefficient(2, z, 1.0);

  RevisedSimplex hot_solver;
  const Solution hot = hot_solver.solve(m, &warm);
  ASSERT_EQ(hot.status, SolveStatus::kOptimal);

  RevisedSimplex cold_solver;
  const Solution cold = cold_solver.solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_NEAR(hot.objective, cold.objective, 1e-8);
  EXPECT_LE(hot.iterations, cold.iterations);
}

TEST(WarmStart, IncompatibleSnapshotFallsBackToColdStart) {
  LpModel m = base_model();
  WS warm = base_optimum();
  warm.basis.pop_back();  // wrong row count -> rejected

  RevisedSimplex second;
  const Solution s = second.solve(m, &warm);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
}

TEST(WarmStart, GarbageBasisIsRejectedNotTrusted) {
  LpModel m = base_model();
  WS warm = base_optimum();
  // Duplicate the first basic variable across all rows: invalid.
  for (auto& b : warm.basis) b = warm.basis[0];
  RevisedSimplex second;
  const Solution s = second.solve(m, &warm);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
}

TEST(WarmStart, EmptySnapshotMeansCold) {
  LpModel m = base_model();
  RevisedSimplex::WarmStart empty;
  RevisedSimplex solver;
  const Solution s = solver.solve(m, &empty);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
}

TEST(WarmStart, SolutionReportsWarmStartedFlag) {
  LpModel m = base_model();
  RevisedSimplex solver;
  const Solution cold = solver.solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_FALSE(cold.warm_started);
  const WS warm = base_optimum();

  RevisedSimplex second;
  const Solution hot = second.solve(m, &warm);
  ASSERT_EQ(hot.status, SolveStatus::kOptimal);
  EXPECT_TRUE(hot.warm_started);
  EXPECT_EQ(hot.phase1_iterations, 0);
}

TEST(WarmStart, SingularRestoredBasisFallsBackCleanly) {
  // x and y have identical columns, so a basis holding both is singular:
  // the statuses restore fine but the factorization must reject it and the
  // solve must fall back to a cold start, not divide by a zero pivot.
  LpModel m;
  const int x = m.add_variable(0.0, 10.0, -1.0);
  const int y = m.add_variable(0.0, 10.0, -1.0);
  const int r1 = m.add_constraint(-kInfinity, 4.0);
  m.add_coefficient(r1, x, 1.0);
  m.add_coefficient(r1, y, 1.0);
  const int r2 = m.add_constraint(-kInfinity, 6.0);
  m.add_coefficient(r2, x, 1.0);
  m.add_coefficient(r2, y, 1.0);

  RevisedSimplex::WarmStart warm;
  warm.col_status = {RevisedSimplex::WarmStart::kBasic,
                     RevisedSimplex::WarmStart::kBasic};
  warm.row_status = {RevisedSimplex::WarmStart::kAtUpper,
                     RevisedSimplex::WarmStart::kAtUpper};
  warm.basis = {x, y};  // basis matrix [[1,1],[1,1]]: singular

  RevisedSimplex solver;
  const Solution s = solver.solve(m, &warm);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_FALSE(s.warm_started);
  EXPECT_NEAR(s.objective, -4.0, 1e-8);
}

TEST(WarmStart, InfeasibleWarmPointFallsBackCleanly) {
  // A bound change between snapshot and reuse can make the restored basic
  // point violate its bounds. Phase 1 is skipped on warm starts, so the
  // solver must detect the infeasibility up front and start cold.
  LpModel m = base_model();
  const WS warm = base_optimum();

  // Raise x's lower bound above its restored basic value: the snapshot
  // still restores and factorizes, but the implied point has x = 2 < 3.
  m.set_variable_bounds(0, 3.0, kInfinity);
  RevisedSimplex second;
  const Solution s = second.solve(m, &warm);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_FALSE(s.warm_started);
  EXPECT_NEAR(s.objective, -31.5, 1e-8);  // x = 3, y = 4.5
}

TEST(WarmStart, SnapshotFromWiderModelIsRejected) {
  // A snapshot taken on a model with extra columns (the cross-slot case:
  // last slot's master had path columns this slot's master lacks) cannot
  // be restored verbatim; it must be rejected, not read out of bounds.
  LpModel wide = base_model();
  const int extra = wide.add_variable(0.0, 2.0, -10.0);
  wide.add_coefficient(2, extra, 1.0);
  // The wide model's optimum: extra at its upper bound 2, x = 4/3, y = 6.
  WS warm = base_optimum();
  warm.col_status.push_back(WS::kAtUpper);
  RevisedSimplex solver;
  const Solution w = solver.solve(wide, &warm);
  ASSERT_EQ(w.status, SolveStatus::kOptimal);
  ASSERT_TRUE(w.warm_started);
  EXPECT_NEAR(w.objective, -54.0, 1e-8);

  LpModel narrow = base_model();
  RevisedSimplex second;
  const Solution s = second.solve(narrow, &warm);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_FALSE(s.warm_started);
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
}

TEST(WarmStart, SequenceOfExtensionsTracksOptimum) {
  // Repeatedly add columns (CG pattern), warm-start each solve from the
  // previous optimum, and check it matches a cold solve every time.
  LpModel m;
  const int r = m.add_constraint(10.0, 10.0);
  const int x0 = m.add_variable(0.0, kInfinity, 5.0);
  m.add_coefficient(r, x0, 1.0);

  // The one-column optimum: x0 = 10 basic in the equality row, whose fixed
  // logical sits at its bound.
  WS warm;
  warm.col_status = {WS::kBasic};
  warm.row_status = {WS::kAtLower};
  warm.basis = {x0};

  RevisedSimplex warm_solver;
  for (int step = 0; step < 5; ++step) {
    const double cost = 4.0 - step;  // each new column is cheaper
    const int v = m.add_variable(0.0, kInfinity, cost);
    m.add_coefficient(r, v, 1.0);

    const Solution hot = warm_solver.solve(m, &warm);
    EXPECT_TRUE(hot.warm_started) << "step " << step;
    // The new column is the cheapest, so it replaces the basic one.
    for (signed char& st : warm.col_status) st = WS::kAtLower;
    warm.col_status.push_back(WS::kBasic);
    warm.basis = {v};
    ASSERT_EQ(hot.status, SolveStatus::kOptimal) << "step " << step;
    EXPECT_NEAR(hot.objective, cost * 10.0, 1e-8) << "step " << step;

    RevisedSimplex cold;
    EXPECT_NEAR(cold.solve(m).objective, hot.objective, 1e-8) << "step " << step;
  }
}

}  // namespace
}  // namespace postcard::lp
