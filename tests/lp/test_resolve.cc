// In-place resumes (RevisedSimplex::resolve) — the column-generation inner
// loop's hot restart. A resume must reach the cold solve's optimum while
// keeping the incumbent basis, LU factorization, and matrix (extended
// append-only); can_resume() must refuse every state the contract excludes,
// and resolve() then solves cold.
// Also pins the Devex/refactorization interaction: forcing a
// refactorization every other pivot must not change the pivot trajectory.
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

TEST(Resolve, RefusesWithoutPriorSolve) {
  RevisedSimplex solver;
  EXPECT_FALSE(solver.can_resume(base_model()));
}

TEST(Resolve, ResumableAfterOptimalSolve) {
  LpModel m = base_model();
  RevisedSimplex solver;
  ASSERT_EQ(solver.solve(m).status, SolveStatus::kOptimal);
  EXPECT_TRUE(solver.can_resume(m));
}

TEST(Resolve, AppendedColumnReachesColdOptimum) {
  LpModel m = base_model();
  RevisedSimplex solver;
  ASSERT_EQ(solver.solve(m).status, SolveStatus::kOptimal);

  // Attractive appended column entering at zero: resumable.
  const int z = m.add_variable(0.0, 2.0, -10.0);
  m.add_coefficient(2, z, 1.0);
  ASSERT_TRUE(solver.can_resume(m));
  const Solution hot = solver.resolve(m);
  ASSERT_EQ(hot.status, SolveStatus::kOptimal);
  EXPECT_TRUE(hot.warm_started);
  EXPECT_EQ(hot.phase1_iterations, 0);

  RevisedSimplex cold_solver;
  const Solution cold = cold_solver.solve(m);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_NEAR(hot.objective, cold.objective, 1e-8);
  EXPECT_LE(hot.iterations, cold.iterations);
}

TEST(Resolve, NoOpResumeCostsNoPivots) {
  LpModel m = base_model();
  RevisedSimplex solver;
  ASSERT_EQ(solver.solve(m).status, SolveStatus::kOptimal);
  const Solution again = solver.resolve(m);
  ASSERT_EQ(again.status, SolveStatus::kOptimal);
  EXPECT_EQ(again.iterations, 0);
  EXPECT_NEAR(again.objective, -36.0, 1e-8);
}

TEST(Resolve, SequenceOfAppendsTracksOptimum) {
  // Column-generation shape: one solve, then a chain of resumes, each
  // appending one improving column. Every resume must match a from-scratch
  // solve of the same model.
  LpModel m = base_model();
  RevisedSimplex solver;
  ASSERT_EQ(solver.solve(m).status, SolveStatus::kOptimal);
  for (int round = 0; round < 4; ++round) {
    const int v =
        m.add_variable(0.0, 1.0 + round, -8.0 - round);
    m.add_coefficient(round % 3, v, 1.0);
    ASSERT_TRUE(solver.can_resume(m)) << "round " << round;
    const Solution hot = solver.resolve(m);
    ASSERT_EQ(hot.status, SolveStatus::kOptimal) << "round " << round;

    RevisedSimplex fresh;
    const Solution cold = fresh.solve(m);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal);
    EXPECT_NEAR(hot.objective, cold.objective, 1e-7) << "round " << round;
  }
}

TEST(Resolve, RefusesRowCountChange) {
  LpModel m = base_model();
  RevisedSimplex solver;
  ASSERT_EQ(solver.solve(m).status, SolveStatus::kOptimal);
  LpModel wider = base_model();
  wider.add_constraint(-kInfinity, 50.0);
  EXPECT_FALSE(solver.can_resume(wider));
}

TEST(Resolve, RefusesColumnThatCannotEnterAtZero) {
  LpModel m = base_model();
  RevisedSimplex solver;
  ASSERT_EQ(solver.solve(m).status, SolveStatus::kOptimal);
  // Lower bound 1 > 0: the incumbent basic point would turn infeasible.
  const int v = m.add_variable(1.0, 3.0, -1.0);
  m.add_coefficient(0, v, 1.0);
  EXPECT_FALSE(solver.can_resume(m));
  // resolve() still answers correctly via the cold fallback.
  const Solution s = solver.resolve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  RevisedSimplex fresh;
  EXPECT_NEAR(s.objective, fresh.solve(m).objective, 1e-8);
}

TEST(Resolve, RefusesNarrowedModel) {
  LpModel m = base_model();
  RevisedSimplex solver;
  ASSERT_EQ(solver.solve(m).status, SolveStatus::kOptimal);
  LpModel narrower;  // fewer columns than the solved model
  narrower.add_variable(0.0, kInfinity, -1.0);
  narrower.add_constraint(-kInfinity, 4.0);
  narrower.add_coefficient(0, 0, 1.0);
  EXPECT_FALSE(solver.can_resume(narrower));
}

TEST(Resolve, RefusesAfterNonOptimalOutcome) {
  // An unbounded outcome must clear resume eligibility.
  LpModel m;
  m.add_variable(0.0, kInfinity, -1.0);  // min -x, x unbounded above
  RevisedSimplex solver;
  ASSERT_EQ(solver.solve(m).status, SolveStatus::kUnbounded);
  EXPECT_FALSE(solver.can_resume(m));
}

// A coefficient added to a PRE-EXISTING column changes a column the
// incumbent basis, point and LU factorization were computed from, so
// can_resume() must refuse and resolve() must reach the cold optimum. Row 0
// (x <= 4) gains -1 or 3 in column x or y, next to an appended column.
TEST(Resolve, EntryIntoExistingColumnStillCorrect) {
  for (const double value : {-1.0, 3.0}) {
    for (const int col : {0, 1}) {
      LpModel m = base_model();
      RevisedSimplex solver;
      ASSERT_EQ(solver.solve(m).status, SolveStatus::kOptimal);
      const int z = m.add_variable(0.0, 2.0, -10.0);
      m.add_coefficient(2, z, 1.0);
      m.add_coefficient(0, col, value);
      EXPECT_FALSE(solver.can_resume(m)) << "A[0," << col << "] += " << value;
      const Solution s = solver.resolve(m);
      ASSERT_EQ(s.status, SolveStatus::kOptimal);
      RevisedSimplex fresh;
      EXPECT_NEAR(s.objective, fresh.solve(m).objective, 1e-8)
          << "A[0," << col << "] += " << value;
    }
  }
}

// Devex pricing maintains reduced costs incrementally and recomputes them
// at every refactorization. The two code paths must agree: forcing a
// refactorization every other pivot (interval 2) must reproduce the
// default-interval trajectory exactly — same pivots, objective, and point.
TEST(Devex, ForcedRefactorizationKeepsTrajectory) {
  // A shape with enough pivots for several forced refactorizations.
  LpModel m;
  const int kCols = 12;
  for (int j = 0; j < kCols; ++j) {
    m.add_variable(0.0, 3.0 + (j % 4), -1.0 - (j * 7) % 5);
  }
  for (int i = 0; i < 6; ++i) {
    const int r = m.add_constraint(-kInfinity, 10.0 + i);
    for (int j = 0; j < kCols; ++j) {
      if ((i + j) % 3 == 0) m.add_coefficient(r, j, 1.0 + (i + j) % 2);
    }
  }

  RevisedSimplex::Options often;
  often.refactor_interval = 2;
  RevisedSimplex::Options rarely;
  rarely.refactor_interval = 100;

  RevisedSimplex a{often}, b{rarely};
  const Solution sa = a.solve(m);
  const Solution sb = b.solve(m);
  ASSERT_EQ(sa.status, SolveStatus::kOptimal);
  ASSERT_EQ(sb.status, SolveStatus::kOptimal);
  EXPECT_EQ(sa.iterations, sb.iterations);
  EXPECT_EQ(sa.phase1_iterations, sb.phase1_iterations);
  EXPECT_EQ(sa.degenerate_pivots, sb.degenerate_pivots);
  EXPECT_DOUBLE_EQ(sa.objective, sb.objective);
  ASSERT_EQ(sa.x.size(), sb.x.size());
  for (std::size_t j = 0; j < sa.x.size(); ++j) {
    EXPECT_DOUBLE_EQ(sa.x[j], sb.x[j]) << "x[" << j << "]";
  }
}

// The same invariant on the resume path — within tolerance, not bit for
// bit: a resumed chain keeps the product-form updates alive, so the
// frequently-refactorizing solver reports refactorization-exact values
// while the other carries O(1e-9) PFI drift. What must hold is that both
// chains stay optimal at every round and agree to solver tolerance.
TEST(Devex, ForcedRefactorizationKeepsResumeOptimum) {
  RevisedSimplex::Options often;
  often.refactor_interval = 2;
  RevisedSimplex::Options rarely;
  rarely.refactor_interval = 100;
  RevisedSimplex a{often}, b{rarely};

  LpModel m = base_model();
  ASSERT_EQ(a.solve(m).status, SolveStatus::kOptimal);
  ASSERT_EQ(b.solve(m).status, SolveStatus::kOptimal);
  for (int round = 0; round < 4; ++round) {
    const int v = m.add_variable(0.0, 2.0, -6.0 - round);
    m.add_coefficient(round % 3, v, 1.0);
    const Solution sa = a.resolve(m);
    const Solution sb = b.resolve(m);
    ASSERT_EQ(sa.status, SolveStatus::kOptimal) << "round " << round;
    ASSERT_EQ(sb.status, SolveStatus::kOptimal) << "round " << round;
    EXPECT_NEAR(sa.objective, sb.objective, 1e-6) << "round " << round;
    // Short tails either way: a resume never re-runs phase 1.
    EXPECT_EQ(sa.phase1_iterations, 0) << "round " << round;
    EXPECT_EQ(sb.phase1_iterations, 0) << "round " << round;
  }
}

}  // namespace
}  // namespace postcard::lp
