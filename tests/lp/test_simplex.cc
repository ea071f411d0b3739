#include "lp/simplex.h"

#include <gtest/gtest.h>

#include "lp/certificate.h"

namespace postcard::lp {
namespace {

Solution run(const LpModel& m) { return RevisedSimplex().solve(m); }

TEST(Simplex, TrivialBoundsOnlyProblem) {
  // min 2x - 3y, 0<=x<=5, 1<=y<=4: x=0, y=4.
  LpModel m;
  m.add_variable(0.0, 5.0, 2.0);
  m.add_variable(1.0, 4.0, -3.0);
  const auto s = run(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -12.0, 1e-9);
  EXPECT_NEAR(s.x[0], 0.0, 1e-9);
  EXPECT_NEAR(s.x[1], 4.0, 1e-9);
}

TEST(Simplex, ClassicTwoVariableLp) {
  // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18, x,y>=0  (Dantzig's example)
  // => min -3x -5y; optimum x=2, y=6, obj=-36.
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

  const auto s = run(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
  EXPECT_NEAR(s.x[y], 6.0, 1e-8);
}

TEST(Simplex, EqualityConstraintNeedsPhase1) {
  // min x + 2y s.t. x + y = 10, x,y >= 0 => x=10, y=0, obj=10.
  LpModel m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  const int y = m.add_variable(0.0, kInfinity, 2.0);
  const int r = m.add_constraint(10.0, 10.0);
  m.add_coefficient(r, x, 1.0);
  m.add_coefficient(r, y, 1.0);
  const auto s = run(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-8);
  EXPECT_NEAR(s.x[x], 10.0, 1e-8);
  EXPECT_NEAR(s.x[y], 0.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  // x >= 5 and x <= 2 via rows.
  LpModel m;
  const int x = m.add_variable(0.0, kInfinity, 1.0);
  int r1 = m.add_constraint(5.0, kInfinity);
  m.add_coefficient(r1, x, 1.0);
  int r2 = m.add_constraint(-kInfinity, 2.0);
  m.add_coefficient(r2, x, 1.0);
  EXPECT_EQ(run(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEqualitySystem) {
  // x + y = 1 and x + y = 3.
  LpModel m;
  const int x = m.add_variable(-kInfinity, kInfinity, 0.0);
  const int y = m.add_variable(-kInfinity, kInfinity, 0.0);
  int r1 = m.add_constraint(1.0, 1.0);
  m.add_coefficient(r1, x, 1.0);
  m.add_coefficient(r1, y, 1.0);
  int r2 = m.add_constraint(3.0, 3.0);
  m.add_coefficient(r2, x, 1.0);
  m.add_coefficient(r2, y, 1.0);
  EXPECT_EQ(run(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // min -x, x >= 0, no upper bound.
  LpModel m;
  m.add_variable(0.0, kInfinity, -1.0);
  EXPECT_EQ(run(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, DetectsUnboundedThroughConstraint) {
  // min -x s.t. x - y <= 1, x,y >= 0: ray (x,y)->(t+1,t).
  LpModel m;
  const int x = m.add_variable(0.0, kInfinity, -1.0);
  const int y = m.add_variable(0.0, kInfinity, 0.0);
  int r = m.add_constraint(-kInfinity, 1.0);
  m.add_coefficient(r, x, 1.0);
  m.add_coefficient(r, y, -1.0);
  EXPECT_EQ(run(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, FreeVariableEquality) {
  // min |structure|: free y. min y s.t. y = 3 by equality with free var.
  LpModel m;
  const int y = m.add_variable(-kInfinity, kInfinity, 1.0);
  const int r = m.add_constraint(3.0, 3.0);
  m.add_coefficient(r, y, 1.0);
  const auto s = run(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[y], 3.0, 1e-9);
}

TEST(Simplex, RangedRowActsAsTwoSidedConstraint) {
  // min x + y s.t. 2 <= x + y <= 6, x,y in [0, 10] => obj 2.
  LpModel m;
  const int x = m.add_variable(0.0, 10.0, 1.0);
  const int y = m.add_variable(0.0, 10.0, 1.0);
  const int r = m.add_constraint(2.0, 6.0);
  m.add_coefficient(r, x, 1.0);
  m.add_coefficient(r, y, 1.0);
  const auto s = run(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x + y, x in [-5,-1], y in [-2, 3], x + y >= -6 => x+y=-6 on the row.
  LpModel m;
  const int x = m.add_variable(-5.0, -1.0, 1.0);
  const int y = m.add_variable(-2.0, 3.0, 1.0);
  const int r = m.add_constraint(-6.0, kInfinity);
  m.add_coefficient(r, x, 1.0);
  m.add_coefficient(r, y, 1.0);
  const auto s = run(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -6.0, 1e-8);
}

TEST(Simplex, TransportationProblem) {
  // 2 suppliers (cap 20, 30) -> 3 consumers (demand 10, 25, 15).
  // costs: s0: [2, 4, 5], s1: [3, 1, 7].
  LpModel m;
  const double cost[2][3] = {{2, 4, 5}, {3, 1, 7}};
  const double cap[2] = {20, 30};
  const double dem[3] = {10, 25, 15};
  int v[2][3];
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      v[i][j] = m.add_variable(0.0, kInfinity, cost[i][j]);
    }
  }
  for (int i = 0; i < 2; ++i) {
    const int r = m.add_constraint(-kInfinity, cap[i]);
    for (int j = 0; j < 3; ++j) m.add_coefficient(r, v[i][j], 1.0);
  }
  for (int j = 0; j < 3; ++j) {
    const int r = m.add_constraint(dem[j], dem[j]);
    for (int i = 0; i < 2; ++i) m.add_coefficient(r, v[i][j], 1.0);
  }
  const auto s = run(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LT(m.max_violation(s.x), 1e-7);
  // Known optimum: s0 -> {c0:5, c2:15}, s1 -> {c0:5, c1:25}:
  // 10 + 75 + 15 + 25 = 125.
  EXPECT_NEAR(s.objective, 125.0, 1e-7);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Highly degenerate: many redundant identical rows.
  LpModel m;
  const int x = m.add_variable(0.0, kInfinity, -1.0);
  const int y = m.add_variable(0.0, kInfinity, -1.0);
  for (int k = 0; k < 12; ++k) {
    const int r = m.add_constraint(-kInfinity, 4.0);
    m.add_coefficient(r, x, 1.0);
    m.add_coefficient(r, y, 1.0);
  }
  const auto s = run(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-8);
}

TEST(Simplex, DualValuesSatisfyComplementarySlackness) {
  LpModel m;
  const int x = m.add_variable(0.0, kInfinity, -3.0);
  const int y = m.add_variable(0.0, kInfinity, -5.0);
  int r2 = m.add_constraint(-kInfinity, 12.0);
  m.add_coefficient(r2, y, 2.0);
  int r3 = m.add_constraint(-kInfinity, 18.0);
  m.add_coefficient(r3, x, 3.0);
  m.add_coefficient(r3, y, 2.0);
  const auto s = run(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  ASSERT_EQ(s.duals.size(), 2u);
  // Strong duality: c^T x == y^T b for binding rows (b = [12, 18]).
  EXPECT_NEAR(s.objective, s.duals[0] * 12.0 + s.duals[1] * 18.0, 1e-7);
  // The certificate recomputes d = c - A^T y: every multiplier sits on a
  // finite bound and the complementary-slackness residual c^T x - D is ~0.
  const Certificate cert = certify(m, s);
  EXPECT_LE(cert.primal_violation, 1e-9);
  EXPECT_LE(cert.dual_infeasibility, 1e-9);
  EXPECT_NEAR(cert.relative_gap, 0.0, 1e-9);
  // Both rows bind at x = (2, 6), so both duals are negative (<= rows).
  EXPECT_LT(s.duals[0], 0.0);
  EXPECT_LT(s.duals[1], 0.0);
}

TEST(Simplex, EmptyModel) {
  LpModel m;
  const auto s = run(m);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(Simplex, FixedVariablesRespected) {
  // x fixed at 2; min y s.t. y >= x.
  LpModel m;
  const int x = m.add_variable(2.0, 2.0, 0.0);
  const int y = m.add_variable(0.0, kInfinity, 1.0);
  const int r = m.add_constraint(0.0, kInfinity);  // y - x >= 0
  m.add_coefficient(r, y, 1.0);
  m.add_coefficient(r, x, -1.0);
  const auto s = run(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[x], 2.0, 1e-9);
  EXPECT_NEAR(s.x[y], 2.0, 1e-8);
}

}  // namespace
}  // namespace postcard::lp
