// Compressed sparse column (CSC) matrix and a triplet builder.
//
// CSC is the natural layout for LP work: the simplex prices, factorizes
// and updates its basis column by column.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/dense.h"

namespace postcard::linalg {

using Index = std::int32_t;

/// One (row, col, value) entry used while assembling a matrix.
struct Triplet {
  Index row = 0;
  Index col = 0;
  double value = 0.0;
};

/// Sparse matrix in compressed-sparse-column form. Existing entries are
/// immutable; the matrix can only grow, column-wise, via append_columns().
///
/// Entries within each column are sorted by row index and duplicate
/// coordinates passed to the builder are summed, so the structure is
/// canonical: two matrices with equal dimensions and equal arrays are
/// numerically identical.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds an m-by-n matrix from unordered triplets. Duplicates are summed;
  /// explicit zeros (including sums that cancel below `drop_tol`) are kept
  /// out of the structure.
  static SparseMatrix from_triplets(Index rows, Index cols,
                                    const std::vector<Triplet>& triplets,
                                    double drop_tol = 0.0);

  /// Builds directly from canonical CSC arrays (sorted rows per column).
  static SparseMatrix from_csc(Index rows, Index cols,
                               std::vector<Index> col_ptr,
                               std::vector<Index> row_idx,
                               std::vector<double> values);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index nonzeros() const { return static_cast<Index>(values_.size()); }

  const std::vector<Index>& col_ptr() const { return col_ptr_; }
  const std::vector<Index>& row_idx() const { return row_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Begin/end offsets of column j in row_idx()/values().
  Index col_begin(Index j) const { return col_ptr_[j]; }
  Index col_end(Index j) const { return col_ptr_[j + 1]; }

  /// y = A * x   (y sized rows()).
  void multiply(const Vector& x, Vector& y) const;
  /// y = A^T * x (y sized cols()).
  void multiply_transpose(const Vector& x, Vector& y) const;

  /// Returns A^T as a new CSC matrix (equivalently: this matrix in CSR).
  SparseMatrix transpose() const;

  /// Grows the matrix in place by `new_cols` columns assembled from
  /// `triplets[first..]`, every one of which must address the appended
  /// column range [cols(), cols() + new_cols). Existing columns are
  /// untouched; the new columns get the same canonical form as
  /// from_triplets (rows sorted, duplicates summed, exact-zero sums
  /// dropped). This is the incremental path for append-only LP models.
  void append_columns(Index new_cols, const std::vector<Triplet>& triplets,
                      std::size_t first = 0);

  /// Dense element lookup (binary search within the column); O(log nnz_col).
  double coeff(Index row, Index col) const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> col_ptr_;   // size cols_+1
  std::vector<Index> row_idx_;   // size nnz
  std::vector<double> values_;   // size nnz
};

}  // namespace postcard::linalg
