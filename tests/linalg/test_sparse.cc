#include "linalg/sparse.h"

#include <gtest/gtest.h>

#include <random>

namespace postcard::linalg {
namespace {

TEST(SparseMatrix, EmptyMatrix) {
  const auto a = SparseMatrix::from_triplets(0, 0, {});
  EXPECT_EQ(a.rows(), 0);
  EXPECT_EQ(a.cols(), 0);
  EXPECT_EQ(a.nonzeros(), 0);
}

TEST(SparseMatrix, BuildsCanonicalCscFromUnorderedTriplets) {
  const std::vector<Triplet> ts = {
      {2, 0, 3.0}, {0, 0, 1.0}, {1, 1, 4.0}, {0, 2, 5.0}, {2, 2, 6.0}};
  const auto a = SparseMatrix::from_triplets(3, 3, ts);
  EXPECT_EQ(a.nonzeros(), 5);
  EXPECT_DOUBLE_EQ(a.coeff(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.coeff(2, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.coeff(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(a.coeff(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(a.coeff(2, 2), 6.0);
  EXPECT_DOUBLE_EQ(a.coeff(1, 0), 0.0);
  // Rows strictly increasing within each column.
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index p = a.col_begin(j); p + 1 < a.col_end(j); ++p) {
      EXPECT_LT(a.row_idx()[p], a.row_idx()[p + 1]);
    }
  }
}

TEST(SparseMatrix, SumsDuplicateTriplets) {
  const std::vector<Triplet> ts = {{1, 1, 2.0}, {1, 1, 3.5}, {1, 1, -1.0}};
  const auto a = SparseMatrix::from_triplets(2, 2, ts);
  EXPECT_EQ(a.nonzeros(), 1);
  EXPECT_DOUBLE_EQ(a.coeff(1, 1), 4.5);
}

TEST(SparseMatrix, DropsCancellingDuplicates) {
  const std::vector<Triplet> ts = {{0, 0, 2.0}, {0, 0, -2.0}, {1, 0, 1.0}};
  const auto a = SparseMatrix::from_triplets(2, 1, ts);
  EXPECT_EQ(a.nonzeros(), 1);
  EXPECT_DOUBLE_EQ(a.coeff(1, 0), 1.0);
}

TEST(SparseMatrix, RejectsOutOfRangeTriplets) {
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::out_of_range);
  EXPECT_THROW(SparseMatrix::from_triplets(2, 2, {{0, -1, 1.0}}),
               std::out_of_range);
}

TEST(SparseMatrix, FromCscValidatesStructure) {
  EXPECT_NO_THROW(SparseMatrix::from_csc(2, 2, {0, 1, 2}, {0, 1}, {1.0, 2.0}));
  // Non-monotone col_ptr.
  EXPECT_THROW(SparseMatrix::from_csc(2, 2, {0, 2, 1}, {0, 1}, {1.0, 2.0}),
               std::invalid_argument);
  // Unsorted rows within a column.
  EXPECT_THROW(SparseMatrix::from_csc(2, 1, {0, 2}, {1, 0}, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  const auto a = SparseMatrix::from_triplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, -3.0}, {1, 2, 4.0}});
  Vector y;
  a.multiply({1.0, 2.0, 3.0}, y);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 1.0 * 1 + 2.0 * 3);
  EXPECT_DOUBLE_EQ(y[1], -3.0 * 2 + 4.0 * 3);

  Vector z;
  a.multiply_transpose({1.0, 1.0}, z);
  ASSERT_EQ(z.size(), 3u);
  EXPECT_DOUBLE_EQ(z[0], 1.0);
  EXPECT_DOUBLE_EQ(z[1], -3.0);
  EXPECT_DOUBLE_EQ(z[2], 6.0);
}

TEST(SparseMatrix, TransposeRoundTrip) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> coord(0, 9);
  std::uniform_real_distribution<double> val(-5.0, 5.0);
  std::vector<Triplet> ts;
  for (int k = 0; k < 40; ++k) {
    ts.push_back({coord(rng), coord(rng), val(rng)});
  }
  const auto a = SparseMatrix::from_triplets(10, 10, ts);
  const auto att = a.transpose().transpose();
  ASSERT_EQ(att.nonzeros(), a.nonzeros());
  for (Index i = 0; i < 10; ++i) {
    for (Index j = 0; j < 10; ++j) {
      EXPECT_DOUBLE_EQ(att.coeff(i, j), a.coeff(i, j));
    }
  }
}

TEST(SparseMatrix, TransposeAgreesWithMultiply) {
  const auto a = SparseMatrix::from_triplets(
      3, 2, {{0, 0, 1.0}, {2, 0, -2.0}, {1, 1, 3.0}});
  const auto at = a.transpose();
  const Vector x = {0.5, -1.5, 2.5};
  Vector via_transpose_mult, via_at;
  a.multiply_transpose(x, via_transpose_mult);
  at.multiply(x, via_at);
  ASSERT_EQ(via_transpose_mult.size(), via_at.size());
  for (std::size_t i = 0; i < via_at.size(); ++i) {
    EXPECT_DOUBLE_EQ(via_transpose_mult[i], via_at[i]);
  }
}

// append_columns must produce exactly the matrix from_triplets builds over
// the full triplet set — same canonical structure, same arrays — so the
// incremental LP-master path is indistinguishable from a rebuild.
TEST(SparseMatrix, AppendColumnsMatchesFromTriplets) {
  const std::vector<Triplet> head = {
      {0, 0, 1.0}, {2, 0, -2.0}, {1, 1, 3.0}};
  const std::vector<Triplet> tail = {
      {2, 2, 5.0}, {0, 2, 4.0},              // unsorted rows within the column
      {1, 3, 1.5}, {1, 3, 0.5},              // duplicate coordinates: summed
      {0, 4, 2.0}, {0, 4, -2.0}, {2, 4, 7.0}  // cancelling pair: dropped
  };
  auto grown = SparseMatrix::from_triplets(3, 2, head);
  grown.append_columns(3, tail);

  std::vector<Triplet> all = head;
  all.insert(all.end(), tail.begin(), tail.end());
  const auto rebuilt = SparseMatrix::from_triplets(3, 5, all);

  EXPECT_EQ(grown.rows(), rebuilt.rows());
  EXPECT_EQ(grown.cols(), rebuilt.cols());
  EXPECT_EQ(grown.col_ptr(), rebuilt.col_ptr());
  EXPECT_EQ(grown.row_idx(), rebuilt.row_idx());
  EXPECT_EQ(grown.values(), rebuilt.values());
}

TEST(SparseMatrix, AppendColumnsHonorsFirstOffset) {
  // The LP model keeps one append-only triplet list; append_columns is told
  // where the new entries start and must ignore everything before.
  const std::vector<Triplet> log = {
      {0, 0, 1.0}, {1, 1, 2.0},  // already folded into the matrix
      {2, 2, 3.0}, {0, 2, 1.0}   // the appended column
  };
  auto grown = SparseMatrix::from_triplets(3, 2,
                                           {log.begin(), log.begin() + 2});
  grown.append_columns(1, log, 2);
  const auto rebuilt = SparseMatrix::from_triplets(3, 3, log);
  EXPECT_EQ(grown.col_ptr(), rebuilt.col_ptr());
  EXPECT_EQ(grown.row_idx(), rebuilt.row_idx());
  EXPECT_EQ(grown.values(), rebuilt.values());
}

TEST(SparseMatrix, AppendZeroColumnsIsStructural) {
  auto m = SparseMatrix::from_triplets(2, 1, {{0, 0, 1.0}});
  m.append_columns(2, {});  // two empty columns, no entries
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nonzeros(), 1);
  EXPECT_EQ(m.col_end(2), m.col_begin(1));
}

TEST(SparseMatrix, AppendColumnsRejectsEntriesInExistingColumns) {
  auto m = SparseMatrix::from_triplets(2, 2, {{0, 0, 1.0}});
  EXPECT_THROW(m.append_columns(1, {{1, 0, 2.0}}), std::out_of_range);
  EXPECT_THROW(m.append_columns(1, {{1, 3, 2.0}}), std::out_of_range);
}

TEST(DenseHelpers, NormInf) {
  const Vector x = {1.0, 2.0, -2.0};
  EXPECT_DOUBLE_EQ(norm_inf(x), 2.0);
}

}  // namespace
}  // namespace postcard::linalg
