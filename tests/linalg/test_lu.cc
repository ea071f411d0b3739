#include "linalg/lu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

namespace postcard::linalg {
namespace {

// Dense reference: residual ||B x - b||_inf after ftran.
double ftran_residual(const SparseMatrix& b, const Vector& x, const Vector& rhs) {
  Vector bx;
  b.multiply(x, bx);
  double r = 0.0;
  for (std::size_t i = 0; i < bx.size(); ++i) r = std::max(r, std::abs(bx[i] - rhs[i]));
  return r;
}

double btran_residual(const SparseMatrix& b, const Vector& x, const Vector& rhs) {
  Vector btx;
  b.multiply_transpose(x, btx);
  double r = 0.0;
  for (std::size_t i = 0; i < btx.size(); ++i) r = std::max(r, std::abs(btx[i] - rhs[i]));
  return r;
}

SparseMatrix random_nonsingular(int n, std::mt19937& rng, double density) {
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::vector<Triplet> ts;
  for (Index i = 0; i < n; ++i) {
    // Strong diagonal keeps the matrix comfortably nonsingular.
    ts.push_back({i, i, 4.0 + std::abs(val(rng))});
    for (Index j = 0; j < n; ++j) {
      if (i != j && unif(rng) < density) ts.push_back({i, j, val(rng)});
    }
  }
  return SparseMatrix::from_triplets(n, n, ts);
}

TEST(LuFactorization, IdentitySolves) {
  const auto eye = SparseMatrix::from_triplets(
      3, 3, {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}});
  LuFactorization lu;
  ASSERT_EQ(lu.factorize(eye), FactorStatus::kOk);
  Vector x = {1.0, -2.0, 3.0};
  lu.ftran(x);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], -2.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
  lu.btran(x);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(LuFactorization, NegatedIdentity) {
  const auto b = SparseMatrix::from_triplets(
      2, 2, {{0, 0, -1.0}, {1, 1, -1.0}});
  LuFactorization lu;
  ASSERT_EQ(lu.factorize(b), FactorStatus::kOk);
  Vector x = {2.0, -4.0};
  lu.ftran(x);
  EXPECT_DOUBLE_EQ(x[0], -2.0);
  EXPECT_DOUBLE_EQ(x[1], 4.0);
}

TEST(LuFactorization, DetectsSingular) {
  const auto b = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 2.0}});  // second row empty
  LuFactorization lu;
  EXPECT_EQ(lu.factorize(b), FactorStatus::kSingular);
}

TEST(LuFactorization, DetectsNumericallySingular) {
  // Two identical columns.
  const auto b = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {1, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}});
  LuFactorization lu;
  EXPECT_EQ(lu.factorize(b), FactorStatus::kSingular);
}

TEST(LuFactorization, SolvesPermutationMatrix) {
  // Pure row permutation exercises pivoting bookkeeping.
  const auto b = SparseMatrix::from_triplets(
      3, 3, {{1, 0, 1.0}, {2, 1, 1.0}, {0, 2, 1.0}});
  LuFactorization lu;
  ASSERT_EQ(lu.factorize(b), FactorStatus::kOk);
  Vector rhs = {5.0, 6.0, 7.0};
  Vector x = rhs;
  lu.ftran(x);
  EXPECT_LT(ftran_residual(b, x, rhs), 1e-12);
  Vector y = rhs;
  lu.btran(y);
  EXPECT_LT(btran_residual(b, y, rhs), 1e-12);
}

TEST(LuFactorization, RandomMatricesFtranBtran) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 5 + trial * 3;
    const auto b = random_nonsingular(n, rng, 0.2);
    LuFactorization lu;
    ASSERT_EQ(lu.factorize(b), FactorStatus::kOk) << "trial " << trial;
    Vector rhs(static_cast<std::size_t>(n));
    for (double& v : rhs) v = val(rng);
    Vector x = rhs;
    lu.ftran(x);
    EXPECT_LT(ftran_residual(b, x, rhs), 1e-9) << "trial " << trial;
    Vector y = rhs;
    lu.btran(y);
    EXPECT_LT(btran_residual(b, y, rhs), 1e-9) << "trial " << trial;
  }
}

TEST(LuFactorization, EtaUpdateMatchesRefactorization) {
  std::mt19937 rng(123);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  const int n = 20;
  auto b = random_nonsingular(n, rng, 0.3);
  LuFactorization lu;
  ASSERT_EQ(lu.factorize(b), FactorStatus::kOk);

  // Replace a handful of columns one at a time via eta updates, mirroring the
  // replacement in a dense copy of B, and check FTRAN/BTRAN stay accurate.
  std::vector<std::vector<double>> dense(n, std::vector<double>(n, 0.0));
  for (Index j = 0; j < n; ++j) {
    for (Index p = b.col_begin(j); p < b.col_end(j); ++p) {
      dense[b.row_idx()[p]][j] = b.values()[p];
    }
  }

  for (int step = 0; step < 8; ++step) {
    const Index pos = (3 * step + 1) % n;
    // New column: random with strong weight on `pos` to keep B nonsingular.
    Vector col(static_cast<std::size_t>(n), 0.0);
    for (int i = 0; i < n; ++i) {
      col[i] = (i == pos) ? 5.0 + std::abs(val(rng)) : (val(rng) > 0.6 ? val(rng) : 0.0);
    }
    Vector w = col;
    lu.ftran(w);
    ASSERT_TRUE(lu.update(w, pos));
    for (int i = 0; i < n; ++i) dense[i][pos] = col[i];

    // Rebuild the updated B for the residual check.
    std::vector<Triplet> ts;
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < n; ++j) {
        if (dense[i][j] != 0.0) ts.push_back({i, j, dense[i][j]});
      }
    }
    const auto b_now = SparseMatrix::from_triplets(n, n, ts);
    Vector rhs(static_cast<std::size_t>(n));
    for (double& v : rhs) v = val(rng);
    Vector x = rhs;
    lu.ftran(x);
    EXPECT_LT(ftran_residual(b_now, x, rhs), 1e-8) << "step " << step;
    Vector y = rhs;
    lu.btran(y);
    EXPECT_LT(btran_residual(b_now, y, rhs), 1e-8) << "step " << step;
  }
  EXPECT_EQ(lu.updates(), 8);
}

TEST(LuFactorization, UpdateRejectsTinyPivot) {
  const auto eye = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  LuFactorization lu;
  ASSERT_EQ(lu.factorize(eye), FactorStatus::kOk);
  Vector w = {1e-12, 1.0};  // pivot at position 0 far below tolerance
  EXPECT_FALSE(lu.update(w, 0));
  EXPECT_EQ(lu.updates(), 0);
}

TEST(LuFactorization, ShouldRefactorizeAfterBudget) {
  LuFactorization::Options opts;
  opts.max_updates = 2;
  const auto eye = SparseMatrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {1, 1, 1.0}});
  LuFactorization lu(opts);
  ASSERT_EQ(lu.factorize(eye), FactorStatus::kOk);
  EXPECT_FALSE(lu.should_refactorize());
  Vector w = {1.0, 0.5};
  ASSERT_TRUE(lu.update(w, 0));
  EXPECT_FALSE(lu.should_refactorize());
  ASSERT_TRUE(lu.update(w, 0));
  EXPECT_TRUE(lu.should_refactorize());
  ASSERT_EQ(lu.factorize(eye), FactorStatus::kOk);
  EXPECT_EQ(lu.updates(), 0);
}

// ---- Hyper-sparse solves against the dense reference.

// A simplex-shaped basis: mostly logical (-1) singletons, a share of
// network-like structural columns (a +-4 entry on their own row plus up to
// three +-1 entries elsewhere: strictly column diagonally dominant, so
// nonsingular), rows shuffled so pivoting has work to do. The +-1 entries
// make exact cancellations common.
SparseMatrix simplex_like_basis(int n, double structural_share,
                                std::mt19937& rng) {
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::uniform_int_distribution<int> row(0, n - 1);
  std::uniform_int_distribution<int> extra(1, 3);
  std::vector<Index> perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), rng);
  auto sign = [&] { return unif(rng) < 0.5 ? -1.0 : 1.0; };
  std::vector<Triplet> ts;
  for (Index j = 0; j < n; ++j) {
    if (unif(rng) >= structural_share) {
      ts.push_back({perm[j], j, -1.0});
      continue;
    }
    ts.push_back({perm[j], j, 4.0 * sign()});
    std::vector<int> used = {j};
    for (int k = extra(rng); k > 0; --k) {
      const int i = row(rng);
      if (std::find(used.begin(), used.end(), i) != used.end()) continue;
      used.push_back(i);
      ts.push_back({perm[i], j, sign()});
    }
  }
  return SparseMatrix::from_triplets(n, n, ts);
}

// A sparse right-hand side with `count` nonzeros (+-1 and random values).
Vector sparse_rhs(int n, int count, std::mt19937& rng) {
  std::uniform_int_distribution<int> row(0, n - 1);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  Vector x(static_cast<std::size_t>(n), 0.0);
  for (int k = 0; k < count; ++k) {
    x[row(rng)] = k % 2 == 0 ? (val(rng) < 0.0 ? -1.0 : 1.0) : val(rng);
  }
  return x;
}

std::vector<Index> nonzeros_of(const Vector& x) {
  std::vector<Index> p;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] != 0.0) p.push_back(static_cast<Index>(i));
  }
  return p;
}

// The pattern solve's contract against the dense result: every entry that
// is nonzero in either is bit-identical, the pattern is ascending and
// duplicate-free, and it covers every nonzero.
void expect_matches_dense(const Vector& dense, const Vector& sparse,
                          const std::vector<Index>& pattern,
                          const std::string& what) {
  ASSERT_EQ(dense.size(), sparse.size()) << what;
  for (std::size_t k = 1; k < pattern.size(); ++k) {
    ASSERT_LT(pattern[k - 1], pattern[k]) << what << ": pattern not ascending";
  }
  std::vector<char> listed(dense.size(), 0);
  for (Index i : pattern) listed[i] = 1;
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] == 0.0 && sparse[i] == 0.0) continue;
    ASSERT_EQ(std::memcmp(&dense[i], &sparse[i], sizeof(double)), 0)
        << what << ": entry " << i << " dense " << dense[i] << " sparse "
        << sparse[i];
    ASSERT_TRUE(listed[i]) << what << ": nonzero " << i << " not in pattern";
  }
}

// Solves a batch of sparse and dense right-hand sides both ways on `lu`.
void compare_solves(const LuFactorization& lu, int n, std::mt19937& rng,
                    const std::string& what) {
  for (int count : {1, 2, 5, n / 4, n}) {
    const Vector rhs = sparse_rhs(n, count, rng);
    Vector dense = rhs;
    lu.ftran(dense);
    Vector sparse = rhs;
    std::vector<Index> pattern = nonzeros_of(rhs);
    lu.ftran(sparse, pattern);
    expect_matches_dense(dense, sparse, pattern,
                         what + " ftran nnz=" + std::to_string(count));

    dense = rhs;
    lu.btran(dense);
    sparse = rhs;
    pattern = nonzeros_of(rhs);
    // Pattern order is free on input.
    std::shuffle(pattern.begin(), pattern.end(), rng);
    lu.btran(sparse, pattern);
    expect_matches_dense(dense, sparse, pattern,
                         what + " btran nnz=" + std::to_string(count));
  }
}

// Factorizes `b` twice, then applies up to `updates` eta updates, one LU
// fed dense FTRAN images and the dense update, the other the pattern FTRAN
// and the pattern update; after each, both solve the same right-hand sides
// and the pattern solves of the second must match the dense solves of the
// first bit for bit.
void run_differential(const SparseMatrix& b, int updates, double share,
                      std::mt19937& rng, const std::string& what) {
  const int n = b.rows();
  LuFactorization::Options opts;
  opts.max_updates = updates;
  LuFactorization reference(opts), hyper(opts);
  ASSERT_EQ(reference.factorize(b), FactorStatus::kOk) << what;
  ASSERT_EQ(hyper.factorize(b), FactorStatus::kOk) << what;
  compare_solves(hyper, n, rng, what + " base");
  for (int step = 0; step < updates; ++step) {
    // An entering column shaped like the basis's own structurals.
    const SparseMatrix col = simplex_like_basis(n, share, rng);
    Vector a(static_cast<std::size_t>(n), 0.0);
    const Index j = static_cast<Index>(rng() % static_cast<unsigned>(n));
    for (Index p = col.col_begin(j); p < col.col_end(j); ++p) {
      a[col.row_idx()[p]] = col.values()[p];
    }
    Vector w_dense = a;
    reference.ftran(w_dense);
    Vector w = a;
    std::vector<Index> pattern = nonzeros_of(a);
    hyper.ftran(w, pattern);
    expect_matches_dense(w_dense, w, pattern,
                         what + " entering step " + std::to_string(step));
    // Leave at the largest |w| (ties: lowest position), as a ratio test
    // would favour a large pivot.
    Index pos = -1;
    for (Index i : pattern) {
      if (pos < 0 || std::abs(w[i]) > std::abs(w[pos])) pos = i;
    }
    ASSERT_GE(pos, 0) << what;
    ASSERT_TRUE(reference.update(w_dense, pos)) << what;
    ASSERT_TRUE(hyper.update(w, pattern, pos)) << what;
    compare_solves(hyper, n, rng, what + " step " + std::to_string(step));
    // The reference LU's dense solves agree with the hyper LU's as well:
    // the pattern-built eta equals the densely built one.
    const Vector rhs = sparse_rhs(n, 3, rng);
    Vector x = rhs, y = rhs;
    reference.ftran(x);
    hyper.ftran(y);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(std::memcmp(&x[i], &y[i], sizeof(double)), 0)
          << what << " eta file diverged at step " << step;
    }
  }
  EXPECT_EQ(hyper.updates(), updates);
}

TEST(LuFactorization, PatternSolvesMatchDenseOnSimplexShapedBases) {
  std::mt19937 rng(2005);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 100 + 80 * trial;
    const double share = 0.1 + 0.05 * trial;
    run_differential(simplex_like_basis(n, share, rng), 100, share, rng,
                     "simplex-shaped n=" + std::to_string(n));
  }
}

TEST(LuFactorization, PatternSolvesMatchDenseAboveDenseSwitch) {
  // Dense bases fill the factors in: the pattern solves' results exceed
  // the density switch and finish with the dense loops.
  std::mt19937 rng(2006);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 40 + 20 * trial;
    run_differential(random_nonsingular(n, rng, 0.3), 30, 0.5, rng,
                     "dense n=" + std::to_string(n));
  }
}

TEST(LuFactorization, PatternSolvesOnTinyAndIdentityBases) {
  // n below ten makes the dense switch's row budget zero; identity bases
  // make every reach exactly the right-hand side's own pattern.
  std::mt19937 rng(2007);
  for (int n : {1, 2, 5, 9, 64}) {
    std::vector<Triplet> eye;
    for (Index i = 0; i < n; ++i) eye.push_back({i, i, 1.0});
    run_differential(SparseMatrix::from_triplets(n, n, eye), 10, 0.3, rng,
                     "identity n=" + std::to_string(n));
  }
  LuFactorization lu;
  const auto eye = SparseMatrix::from_triplets(3, 3, {{0, 0, 1.0}, {1, 1, 1.0},
                                                      {2, 2, 1.0}});
  ASSERT_EQ(lu.factorize(eye), FactorStatus::kOk);
  Vector x(3, 0.0);
  std::vector<Index> pattern;
  lu.ftran(x, pattern);  // empty right-hand side: empty result
  EXPECT_TRUE(pattern.empty());
  lu.btran(x, pattern);
  EXPECT_TRUE(pattern.empty());
}

}  // namespace
}  // namespace postcard::linalg
