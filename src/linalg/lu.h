// Sparse LU factorization for simplex basis matrices.
//
// The factorization is a left-looking Gilbert-Peierls LU with partial
// pivoting: columns are processed in a fill-reducing order (fewest nonzeros
// first) and each column is obtained by a sparse triangular solve whose
// nonzero pattern is discovered by depth-first search. The result satisfies
//     L * U = P * B * Q
// with unit-lower-triangular L, upper-triangular U, row permutation P (from
// pivoting) and column permutation Q (from the ordering).
//
// Between refactorizations the basis is maintained with product-form-of-the-
// inverse (PFI) eta updates: replacing the basic variable at position p by a
// column whose FTRAN image is w multiplies B by the elementary matrix E that
// is the identity with column p replaced by w. FTRAN/BTRAN apply the eta file
// after/before the triangular solves.
//
// Two kinds of solve share the factors:
//   * dense ftran(x)/btran(x): one pass over every row per triangular factor
//     — the reference, and the right tool for dense right-hand sides;
//   * hyper-sparse ftran(x, pattern)/btran(x, pattern) (Hall & McKinnon,
//     "Hyper-sparsity in the revised simplex method", COAP 2005): the rows a
//     solve can touch are collected by a graph search over L and U (and
//     their row-wise copies, for the transposed solves), sorted, and only
//     those are processed, so the work follows the nonzeros instead of the
//     dimension. Every nonzero of the result is bit-identical to the dense
//     solve's: the reach is processed in the dense loops' pivotal order
//     (ascending for L and U^T, descending for U and L^T), the transposed
//     solves keep their dot products over each stored column in stored
//     order, and the eta file is applied in application order. Only the sign
//     of entries that are structurally zero can differ. When the results
//     turn dense — a right-hand side or a reach past 10% of the rows — the
//     call finishes with the dense loops and scans the pattern out.
#pragma once

#include <vector>

#include "linalg/dense.h"
#include "linalg/sparse.h"

namespace postcard::linalg {

enum class FactorStatus {
  kOk,
  kSingular,  // no acceptable pivot in some column
};

class LuFactorization {
 public:
  struct Options {
    int max_updates = 64;  // advise refactorization after this many etas
  };

  LuFactorization() : LuFactorization(Options{}) {}
  explicit LuFactorization(Options options) : options_(options) {}

  /// Factorizes the square matrix B, replacing any previous factorization and
  /// clearing the eta file.
  FactorStatus factorize(const SparseMatrix& b);

  /// Solves B x = rhs in place (rhs holds x on return). Requires a successful
  /// factorize(); includes all eta updates applied since.
  void ftran(Vector& rhs) const;

  /// Solves B^T x = rhs in place.
  void btran(Vector& rhs) const;

  /// Hyper-sparse FTRAN. On entry `rhs` is zero outside `pattern` (distinct
  /// positions, any order); on return `rhs` holds B^{-1} rhs, zero outside
  /// `pattern`, which then lists the result's nonzero positions in
  /// ascending order. Nonzeros are bit-identical to ftran(rhs).
  void ftran(Vector& rhs, std::vector<Index>& pattern) const;

  /// Hyper-sparse BTRAN, with the same contract as the FTRAN above.
  void btran(Vector& rhs, std::vector<Index>& pattern) const;

  /// Applies a PFI update: the basic column at position `pos` is replaced by
  /// a column whose FTRAN image (B^{-1} a_entering) is `w`, nonzero only at
  /// the ascending positions `pattern`. Returns false if |w[pos]| is below
  /// the eta pivot tolerance, in which case the caller must refactorize
  /// instead.
  bool update(const Vector& w, const std::vector<Index>& pattern, Index pos);

  /// The same update for a dense `w` (its pattern is scanned out first).
  bool update(const Vector& w, Index pos);

  /// Number of eta updates applied since the last factorize().
  int updates() const { return static_cast<int>(etas_.size()); }

  /// True once `updates()` exceeds the configured budget; callers should
  /// refactorize at the next convenient point.
  bool should_refactorize() const {
    return updates() >= options_.max_updates;
  }

  Index dimension() const { return n_; }

 private:
  struct Eta {
    Index pos = 0;                 // basis position being replaced
    double pivot = 0.0;            // w[pos]
    std::vector<Index> idx;        // off-pivot nonzero positions of w
    std::vector<double> val;       // matching values
  };

  void base_ftran(Vector& x) const;   // (LU, P, Q) solve without etas
  void base_btran(Vector& x) const;
  // One step of each triangular solve on work_ (pivotal space): column j
  // of L or U, or row j of U^T or L^T.
  void l_step(Index j) const;
  void u_step(Index j) const;
  void ut_step(Index j) const;
  void lt_step(Index j) const;
  // The same solves over every row, in pivotal order (ascending for L and
  // U^T, descending for U and L^T).
  void dense_l() const;
  void dense_u() const;
  void dense_ut() const;
  void dense_lt() const;
  // Eta file, dense: inverses in application order (FTRAN) or transposes
  // newest first (BTRAN).
  void dense_etas(Vector& x) const;
  void dense_etas_transposed(Vector& x) const;

  Options options_;
  Index n_ = 0;

  // L: unit lower triangular, diagonal stored explicitly (value 1, first
  // entry of each column); row indices are in pivotal order.
  std::vector<Index> l_ptr_, l_idx_;
  std::vector<double> l_val_;
  // U: upper triangular, diagonal stored last in each column.
  std::vector<Index> u_ptr_, u_idx_;
  std::vector<double> u_val_;

  // Row-wise copies of L and U, patterns only and without the diagonals:
  // the graphs the transposed solves search (row i of L lists the columns
  // j < i with L(i, j) != 0, row i of U the columns j > i with U(i, j) != 0).
  std::vector<Index> lr_ptr_, lr_idx_;
  std::vector<Index> ur_ptr_, ur_idx_;

  std::vector<Index> pinv_;   // pinv_[original row] = pivotal position
  std::vector<Index> p_;      // p_[pivotal position] = original row
  std::vector<Index> q_;      // q_[pivotal col] = original column
  std::vector<Index> qinv_;   // qinv_[original column] = pivotal col

  std::vector<Eta> etas_;

  // Scratch reused across solves (sized n_). work_ and mark_ are all zero
  // between calls; reach_ holds the rows a hyper-sparse pass processes.
  mutable Vector work_;
  mutable std::vector<char> mark_;
  mutable std::vector<Index> reach_;
};

}  // namespace postcard::linalg
