#include "lp/presolve.h"

#include <gtest/gtest.h>

#include <cmath>

#include "lp/certificate.h"
#include "lp/simplex.h"
#include "lp/solver.h"

namespace postcard::lp {
namespace {

TEST(Presolve, RemovesFixedVariablesAndShiftsRowBounds) {
  // x fixed at 3 inside x + y + z = 5: the reduced row must read y + z = 2.
  LpModel m;
  const int x = m.add_variable(3.0, 3.0, 1.0);  // fixed
  const int y = m.add_variable(0.0, 10.0, 1.0);
  const int z = m.add_variable(0.0, 10.0, 2.0);
  const int r = m.add_constraint(5.0, 5.0);
  m.add_coefficient(r, x, 1.0);
  m.add_coefficient(r, y, 1.0);
  m.add_coefficient(r, z, 1.0);

  Presolver p;
  auto red = p.reduce(m);
  ASSERT_FALSE(red.decided.has_value());
  EXPECT_EQ(red.reduced.num_variables(), 2);
  EXPECT_EQ(p.removed_cols(), 1);
  ASSERT_EQ(red.reduced.num_constraints(), 1);
  EXPECT_DOUBLE_EQ(red.reduced.row_lower()[0], 2.0);
  EXPECT_DOUBLE_EQ(red.reduced.row_upper()[0], 2.0);

  // End-to-end through the facade: y absorbs the remainder (cost 1 < 2).
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.x[x], 3.0);
  EXPECT_NEAR(s.x[y], 2.0, 1e-8);
  EXPECT_NEAR(s.objective, 3.0 + 2.0, 1e-8);
}

TEST(Presolve, DropsEmptyRowsAndDetectsContradiction) {
  LpModel feasible;
  feasible.add_variable(0.0, 1.0, 0.0);
  feasible.add_constraint(-1.0, 1.0);  // empty row containing 0
  Presolver p1;
  EXPECT_FALSE(p1.reduce(feasible).decided.has_value());

  LpModel infeasible;
  infeasible.add_variable(0.0, 1.0, 0.0);
  infeasible.add_constraint(2.0, 3.0);  // empty row excluding 0
  Presolver p2;
  auto red = p2.reduce(infeasible);
  ASSERT_TRUE(red.decided.has_value());
  EXPECT_EQ(*red.decided, SolveStatus::kInfeasible);
}

TEST(Presolve, SingletonRowTightensBound) {
  // max x (cost -1) with the singleton row x <= 7: the row becomes a bound,
  // the then-empty column is fixed at that bound, and postsolve reports 7.
  LpModel m;
  const int x = m.add_variable(0.0, 100.0, -1.0);
  const int r = m.add_constraint(-kInfinity, 7.0);
  m.add_coefficient(r, x, 1.0);
  Presolver p;
  auto red = p.reduce(m);
  ASSERT_FALSE(red.decided.has_value());
  EXPECT_EQ(red.reduced.num_constraints(), 0);
  EXPECT_EQ(red.reduced.num_variables(), 0);  // cascaded into an empty column

  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.x[x], 7.0);
  EXPECT_DOUBLE_EQ(s.objective, -7.0);
}

TEST(Presolve, SingletonRowWithNegativeCoefficient) {
  // max x with -2x >= -6 <=> x <= 3; free variable, so the implied upper
  // bound is the only thing keeping the problem bounded.
  LpModel m;
  const int x = m.add_variable(-kInfinity, kInfinity, -1.0);
  const int r = m.add_constraint(-6.0, kInfinity);
  m.add_coefficient(r, x, -2.0);
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.x[x], 3.0);
  EXPECT_DOUBLE_EQ(s.objective, -3.0);
}

TEST(Presolve, SingletonRowsCanProveInfeasibility) {
  LpModel m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  int r1 = m.add_constraint(5.0, kInfinity);
  m.add_coefficient(r1, x, 1.0);
  int r2 = m.add_constraint(-kInfinity, 2.0);
  m.add_coefficient(r2, x, 1.0);
  Presolver p;
  auto red = p.reduce(m);
  ASSERT_TRUE(red.decided.has_value());
  EXPECT_EQ(*red.decided, SolveStatus::kInfeasible);
}

TEST(Presolve, EmptyColumnFixedAtOptimalBound) {
  LpModel m;
  m.add_variable(1.0, 4.0, 2.0);    // cost>0 -> lower
  m.add_variable(1.0, 4.0, -2.0);   // cost<0 -> upper
  m.add_variable(-3.0, 5.0, 0.0);   // cost 0 -> any feasible value
  Presolver p;
  auto red = p.reduce(m);
  ASSERT_FALSE(red.decided.has_value());
  EXPECT_EQ(red.reduced.num_variables(), 0);

  Solution inner;
  inner.status = SolveStatus::kOptimal;
  const auto full = p.postsolve(m, inner);
  EXPECT_DOUBLE_EQ(full.x[0], 1.0);
  EXPECT_DOUBLE_EQ(full.x[1], 4.0);
  EXPECT_GE(full.x[2], -3.0);
  EXPECT_LE(full.x[2], 5.0);
  EXPECT_DOUBLE_EQ(full.objective, 2.0 - 8.0);
}

TEST(Presolve, EmptyColumnUnbounded) {
  LpModel m;
  m.add_variable(-kInfinity, kInfinity, 1.0);  // min x, x free, no rows
  Presolver p;
  auto red = p.reduce(m);
  ASSERT_TRUE(red.decided.has_value());
  EXPECT_EQ(*red.decided, SolveStatus::kUnbounded);
}

TEST(Presolve, PostsolveRestoresFullSolution) {
  // Mixed model: one fixed var, one singleton row, one real row.
  LpModel m;
  const int x = m.add_variable(2.0, 2.0, 1.0);
  const int y = m.add_variable(0.0, kInfinity, 3.0);
  const int z = m.add_variable(0.0, kInfinity, 1.0);
  int r1 = m.add_constraint(-kInfinity, 8.0);  // singleton: y <= 8
  m.add_coefficient(r1, y, 1.0);
  int r2 = m.add_constraint(6.0, 6.0);  // x + y + z = 6
  m.add_coefficient(r2, x, 1.0);
  m.add_coefficient(r2, y, 1.0);
  m.add_coefficient(r2, z, 1.0);

  const auto s = solve(m);  // facade runs presolve + postsolve
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  ASSERT_EQ(s.x.size(), 3u);
  EXPECT_DOUBLE_EQ(s.x[x], 2.0);
  EXPECT_NEAR(s.x[y] + s.x[z], 4.0, 1e-8);
  EXPECT_NEAR(s.objective, 2.0 + 4.0, 1e-8);  // z takes the slack (cost 1 < 3)
  EXPECT_NEAR(s.x[z], 4.0, 1e-8);
  EXPECT_LT(m.max_violation(s.x), 1e-7);
}

TEST(Presolve, FacadeMatchesNoPresolveSolve) {
  LpModel m;
  const int x = m.add_variable(0.0, kInfinity, -3.0);
  const int y = m.add_variable(0.0, kInfinity, -5.0);
  int r2 = m.add_constraint(-kInfinity, 12.0);
  m.add_coefficient(r2, y, 2.0);
  int r3 = m.add_constraint(-kInfinity, 18.0);
  m.add_coefficient(r3, x, 3.0);
  m.add_coefficient(r3, y, 2.0);
  int r1 = m.add_constraint(-kInfinity, 4.0);
  m.add_coefficient(r1, x, 1.0);

  const auto a = solve(m);  // presolves
  const auto b = RevisedSimplex().solve(m);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-8);
  // The facade drops the singleton row r1 and returns no duals, so its
  // result is uncertifiable rather than carrying a made-up dual for r1;
  // the unpresolved reference certifies.
  EXPECT_TRUE(a.duals.empty());
  EXPECT_TRUE(std::isinf(certify(m, a).worst()));
  EXPECT_LE(certify(m, b).worst(), 1e-9);
}

}  // namespace
}  // namespace postcard::lp
