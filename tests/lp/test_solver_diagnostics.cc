// Solver diagnostics: statistics fields, the pivot budget and option
// handling.
#include <gtest/gtest.h>

#include "lp/simplex.h"

namespace postcard::lp {
namespace {

LpModel dantzig() {
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

TEST(SolverDiagnostics, IterationCountsAreReported) {
  const Solution s = RevisedSimplex().solve(dantzig());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_GT(s.iterations, 0);
  EXPECT_GE(s.iterations, s.phase1_iterations);
  EXPECT_GE(s.degenerate_pivots, 0);
  EXPECT_GE(s.bound_flips, 0);
}

TEST(SolverDiagnostics, PhaseOneOnlyWhenNeeded) {
  // Pure <= rows from the origin need no artificials.
  const Solution s = RevisedSimplex().solve(dantzig());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.phase1_iterations, 0);

  // An equality away from the origin that no column singleton can repair
  // does: x also sits in a second row.
  LpModel m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  const int r = m.add_constraint(5.0, 5.0);
  m.add_coefficient(r, x, 1.0);
  const int cap = m.add_constraint(-kInfinity, 10.0);
  m.add_coefficient(cap, x, 1.0);
  const Solution s2 = RevisedSimplex().solve(m);
  ASSERT_EQ(s2.status, SolveStatus::kOptimal);
  EXPECT_GT(s2.phase1_iterations, 0);
  EXPECT_FALSE(s2.warm_started);

  // x = 5 alone: x is the row's only column and absorbs the violation
  // within its bounds, so the singleton crash makes it basic instead of an
  // artificial.
  LpModel single;
  const int xs = single.add_variable(0.0, kInfinity, 1.0);
  const int rs = single.add_constraint(5.0, 5.0);
  single.add_coefficient(rs, xs, 1.0);
  const Solution s3 = RevisedSimplex().solve(single);
  ASSERT_EQ(s3.status, SolveStatus::kOptimal);
  EXPECT_EQ(s3.phase1_iterations, 0);
  EXPECT_TRUE(s3.warm_started);
  EXPECT_NEAR(s3.x[xs], 5.0, 1e-9);

  // The crash passes over the lowest-index singleton when its bounds cannot
  // take the violation: y absorbs it, and phase 2 moves volume back to the
  // cheaper x.
  LpModel pair;
  const int xp = pair.add_variable(0.0, 2.0, 1.0);
  const int yp = pair.add_variable(0.0, kInfinity, 2.0);
  const int rp = pair.add_constraint(5.0, 5.0);
  pair.add_coefficient(rp, xp, 1.0);
  pair.add_coefficient(rp, yp, 1.0);
  const Solution s4 = RevisedSimplex().solve(pair);
  ASSERT_EQ(s4.status, SolveStatus::kOptimal);
  EXPECT_EQ(s4.phase1_iterations, 0);
  EXPECT_TRUE(s4.warm_started);
  EXPECT_NEAR(s4.x[xp], 2.0, 1e-9);
  EXPECT_NEAR(s4.x[yp], 3.0, 1e-9);
}

TEST(SolverDiagnostics, IterationLimitIsHonored) {
  RevisedSimplex::Options opts;
  opts.max_iterations = 1;
  const Solution s = RevisedSimplex(opts).solve(dantzig());
  EXPECT_EQ(s.status, SolveStatus::kIterationLimit);
  EXPECT_LE(s.iterations, 1);
}

TEST(SolverDiagnostics, PerturbationCanBeDisabled) {
  RevisedSimplex::Options opts;
  opts.perturbation = 0.0;
  const Solution s = RevisedSimplex(opts).solve(dantzig());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
}

TEST(SolverDiagnostics, StatusToStringCoversAllValues) {
  EXPECT_STREQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_STREQ(to_string(SolveStatus::kIterationLimit), "iteration_limit");
  EXPECT_STREQ(to_string(SolveStatus::kNumericalFailure), "numerical_failure");
  EXPECT_STREQ(to_string(SolveStatus::kDeadlineExceeded), "deadline_exceeded");
}

TEST(SolveBudget, PivotLimitIsStickyAndDeterministic) {
  SolveBudget b = SolveBudget::pivot_limit(2);
  EXPECT_TRUE(b.limited());
  EXPECT_TRUE(b.charge());
  EXPECT_TRUE(b.charge());
  EXPECT_FALSE(b.charge());
  EXPECT_FALSE(b.charge());  // exhaustion is sticky
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.charged(), 2);
}

TEST(SolveBudget, UnlimitedByDefault) {
  SolveBudget b;
  EXPECT_FALSE(b.limited());
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(b.charge());
  EXPECT_FALSE(b.exhausted());
}

TEST(SolverDiagnostics, ZeroPivotBudgetCutsSimplexCooperatively) {
  SolveBudget b = SolveBudget::pivot_limit(0);
  const Solution s = RevisedSimplex().solve(dantzig(), &b);
  EXPECT_EQ(s.status, SolveStatus::kDeadlineExceeded);
  EXPECT_EQ(s.iterations, 0);
}

TEST(SolverDiagnostics, GenerousBudgetLeavesSolveBitForBitIdentical) {
  const Solution reference = RevisedSimplex().solve(dantzig());
  SolveBudget b = SolveBudget::pivot_limit(100000);
  const Solution s = RevisedSimplex().solve(dantzig(), &b);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.objective, reference.objective);
  EXPECT_EQ(s.x, reference.x);
  EXPECT_EQ(s.iterations, reference.iterations);
  EXPECT_GT(b.charged(), 0);
}

TEST(SolveBudget, AUnitBuysOneIterationStepNotOnePivot) {
  // The Dantzig LP takes two pivots. Each of its two phase-2 passes
  // (perturbed costs, then the true costs) also spends one unit on the
  // step that proves it optimal, so the solve charges 4 units, and 2 or 3
  // units stop it with both pivots done but optimality unproven.
  SolveBudget generous = SolveBudget::pivot_limit(100000);
  const Solution full = RevisedSimplex().solve(dantzig(), &generous);
  ASSERT_EQ(full.status, SolveStatus::kOptimal);
  ASSERT_EQ(full.iterations, 2);
  EXPECT_EQ(generous.charged(), 4);
  for (const long units : {2L, 3L}) {
    SolveBudget b = SolveBudget::pivot_limit(units);
    const Solution s = RevisedSimplex().solve(dantzig(), &b);
    EXPECT_EQ(s.status, SolveStatus::kDeadlineExceeded) << units << " units";
    EXPECT_EQ(s.iterations, 2) << units << " units";
  }
}

}  // namespace
}  // namespace postcard::lp
