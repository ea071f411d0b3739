// Property-based checks on random feasible LPs: every simplex optimum must
// carry an optimality certificate (lp::certify: primal feasibility, dual
// feasibility and a zero duality gap, recomputed from the model), presolve
// must not move the optimum, and the certificate must reject solutions
// that are not optimal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "lp/certificate.h"
#include "lp/simplex.h"
#include "lp/solver.h"

namespace postcard::lp {
namespace {

struct RandomLpParams {
  int rows;
  int cols;
  double density;
  // 64 bits leave the struct without padding: gtest prints a parameter's
  // bytes into the test name, and padding bytes are indeterminate.
  std::uint64_t seed;
};

// Generates a random LP that is feasible by construction: bounds are placed
// around a known interior point x0 and row bounds bracket A x0.
//
// With `singleton_slacks`, every row that the simplex's starting point
// (each column at its bound nearest zero) violates also gets a column of
// its own: one entry, signed to move the row toward the violated bound,
// bounded [0, w], so x0 with the slacks at zero stays feasible. On even
// seeds every w exceeds the violation, so the slack can absorb it; on odd
// seeds about half are too narrow to. The slacks are appended after the
// plain LP's columns and drawn from their own generator, so the plain LP's
// part is unchanged.
LpModel random_feasible_lp(const RandomLpParams& p,
                           bool singleton_slacks = false) {
  std::mt19937 rng(p.seed);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::uniform_real_distribution<double> width(0.5, 5.0);

  LpModel m;
  std::vector<double> x0(static_cast<std::size_t>(p.cols));
  for (int j = 0; j < p.cols; ++j) {
    x0[j] = val(rng);
    const double lo = x0[j] - width(rng);
    const double hi = x0[j] + width(rng);
    m.add_variable(lo, hi, val(rng));
  }
  for (int i = 0; i < p.rows; ++i) {
    std::vector<std::pair<int, double>> row;
    double activity = 0.0;
    for (int j = 0; j < p.cols; ++j) {
      if (unif(rng) < p.density) {
        const double a = val(rng);
        if (a != 0.0) {
          row.emplace_back(j, a);
          activity += a * x0[j];
        }
      }
    }
    const int kind = static_cast<int>(unif(rng) * 3.0);
    int r;
    if (kind == 0) {
      r = m.add_constraint(activity - width(rng), kInfinity);
    } else if (kind == 1) {
      r = m.add_constraint(-kInfinity, activity + width(rng));
    } else {
      r = m.add_constraint(activity - width(rng), activity + width(rng));
    }
    for (const auto& [j, a] : row) m.add_coefficient(r, j, a);
  }
  if (!singleton_slacks) return m;

  std::vector<double> start(static_cast<std::size_t>(p.cols));
  for (int j = 0; j < p.cols; ++j) {
    const double lo = m.col_lower()[j], hi = m.col_upper()[j];
    start[j] = std::abs(lo) <= std::abs(hi) ? lo : hi;
  }
  std::vector<double> activity(static_cast<std::size_t>(p.rows), 0.0);
  for (const linalg::Triplet& t : m.entries()) {
    activity[t.row] += t.value * start[t.col];
  }
  std::mt19937 slack_rng(p.seed ^ 0x5eedu);
  std::uniform_real_distribution<double> wide(1.5, 3.0);
  std::uniform_real_distribution<double> narrow(0.2, 0.7);
  for (int i = 0; i < p.rows; ++i) {
    const double below = m.row_lower()[i] - activity[i];
    const double above = activity[i] - m.row_upper()[i];
    const double violation = std::max(below, above);
    if (!(violation > 0.0)) continue;
    const bool fits = p.seed % 2 == 0 || unif(slack_rng) < 0.5;
    const double w = violation * (fits ? wide(slack_rng) : narrow(slack_rng));
    const int s = m.add_variable(0.0, w, val(slack_rng));
    m.add_coefficient(i, s, below > 0.0 ? 1.0 : -1.0);
  }
  return m;
}

// The simplex's own feasibility and optimality tolerances.
constexpr double kCertTol = 1e-7;

class RandomLpTest : public ::testing::TestWithParam<RandomLpParams> {};

TEST_P(RandomLpTest, SimplexFindsFeasibleOptimum) {
  const LpModel m = random_feasible_lp(GetParam());
  const auto s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LT(m.max_violation(s.x), 1e-6);
}

TEST_P(RandomLpTest, SimplexOptimumIsCertified) {
  const LpModel m = random_feasible_lp(GetParam());
  const auto s = RevisedSimplex().solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  const Certificate cert = certify(m, s);
  EXPECT_LE(cert.primal_violation, kCertTol);
  EXPECT_LE(cert.dual_infeasibility, kCertTol);
  EXPECT_LE(std::abs(cert.relative_gap), kCertTol);
}

TEST_P(RandomLpTest, PresolveDoesNotChangeOptimum) {
  const LpModel m = random_feasible_lp(GetParam());
  const auto a = solve(m);  // presolves
  const auto b = RevisedSimplex().solve(m);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6 * (1.0 + std::abs(a.objective)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomLpTest,
    ::testing::Values(RandomLpParams{4, 6, 0.6, 1}, RandomLpParams{8, 12, 0.5, 2},
                      RandomLpParams{15, 25, 0.3, 3}, RandomLpParams{25, 40, 0.2, 4},
                      RandomLpParams{40, 60, 0.15, 5}, RandomLpParams{10, 10, 0.8, 6},
                      RandomLpParams{30, 20, 0.3, 7}, RandomLpParams{50, 80, 0.1, 8}),
    [](const ::testing::TestParamInfo<RandomLpParams>& info) {
      return "r" + std::to_string(info.param.rows) + "c" +
             std::to_string(info.param.cols) + "s" +
             std::to_string(info.param.seed);
    });

// A seeded sweep of 250 random LPs: 3-62 rows, 1-1.5x as many columns
// (at most 92), densities 0.1-0.7.
std::vector<RandomLpParams> sweep_params() {
  std::mt19937 rng(2012);
  std::uniform_int_distribution<int> rows(3, 62);
  std::uniform_real_distribution<double> aspect(1.0, 1.5);
  std::uniform_real_distribution<double> density(0.1, 0.7);
  std::vector<RandomLpParams> params;
  for (unsigned seed = 100; seed < 350; ++seed) {
    const int r = rows(rng);
    const int c = std::clamp(static_cast<int>(r * aspect(rng)), 3, 92);
    params.push_back({r, c, density(rng), seed});
  }
  return params;
}

// The second pass adds singleton slacks: the crash makes a slack basic in
// a row the start violates, instead of an artificial, whenever the slack
// can absorb the violation, and passes over one that cannot.
TEST(RandomLpSweep, EverySimplexOptimumIsCertified) {
  int crash_starts = 0;  // no artificial, where the plain LP ran phase 1
  int phase1_runs = 0;   // slack LPs that still ran phase 1
  for (const bool slacks : {false, true}) {
    for (const RandomLpParams& p : sweep_params()) {
      const LpModel m = random_feasible_lp(p, slacks);
      const auto s = RevisedSimplex().solve(m);
      ASSERT_EQ(s.status, SolveStatus::kOptimal)
          << "seed " << p.seed << ", slacks " << slacks;
      const Certificate cert = certify(m, s);
      EXPECT_LE(cert.worst(), kCertTol)
          << "seed " << p.seed << ", slacks " << slacks << ": primal "
          << cert.primal_violation << ", dual " << cert.dual_infeasibility
          << ", gap " << cert.relative_gap;
      if (!slacks) continue;
      if (s.phase1_iterations > 0) ++phase1_runs;
      if (s.warm_started &&
          !RevisedSimplex().solve(random_feasible_lp(p)).warm_started) {
        ++crash_starts;
      }
    }
  }
  EXPECT_GT(crash_starts, 0);
  EXPECT_GT(phase1_runs, 0);
}

// The certificate is not vacuous: a solve cut at half its pivots, duals
// with their signs flipped and a primal value nudged by 1e-3 all fail it.
TEST(RandomLpSweep, CertificateRejectsNonOptimalSolutions) {
  int flipped_checked = 0;
  for (const RandomLpParams& p : sweep_params()) {
    const LpModel m = random_feasible_lp(p);
    const auto s = RevisedSimplex().solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "seed " << p.seed;

    SolveBudget half = SolveBudget::pivot_limit(s.iterations / 2);
    const auto truncated = RevisedSimplex().solve(m, &half);
    ASSERT_EQ(truncated.status, SolveStatus::kDeadlineExceeded);
    EXPECT_GT(certify(m, truncated).worst(), kCertTol) << "seed " << p.seed;

    Solution flipped = s;
    for (double& y : flipped.duals) y = -y;
    if (linalg::norm_inf(s.duals) > kCertTol) {
      EXPECT_GT(certify(m, flipped).worst(), kCertTol) << "seed " << p.seed;
      ++flipped_checked;
    }

    Solution shifted = s;
    shifted.x[0] += 1e-3;
    EXPECT_GT(certify(m, shifted).worst(), kCertTol) << "seed " << p.seed;
  }
  EXPECT_GT(flipped_checked, 200);

  // Without one dual per row there is nothing to certify.
  const LpModel m = random_feasible_lp({4, 6, 0.6, 1});
  Solution no_duals = RevisedSimplex().solve(m);
  no_duals.duals.clear();
  EXPECT_TRUE(std::isinf(certify(m, no_duals).worst()));
}

}  // namespace
}  // namespace postcard::lp
