#include "linalg/lu.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <numeric>

namespace postcard::linalg {
namespace {

// Result density (share of rows) above which a solve runs the dense loops:
// past it the reach search and sort cost more than the rows they skip.
constexpr double kDenseDensity = 0.10;

constexpr double kPivotTol = 1e-11;    // smallest acceptable pivot magnitude
constexpr double kEtaPivotTol = 1e-7;  // smallest acceptable eta pivot |w_p|

// Transposes the off-diagonal pattern of a triangular factor stored by
// columns: column j's entries idx[ptr[j] + skip_front .. ptr[j + 1] -
// skip_back) become entries of rows. Columns are visited ascending, so each
// row lists its columns in ascending order.
void transpose_pattern(Index n, const std::vector<Index>& ptr,
                       const std::vector<Index>& idx, Index skip_front,
                       Index skip_back, std::vector<Index>& row_ptr,
                       std::vector<Index>& row_idx) {
  row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Index j = 0; j < n; ++j) {
    for (Index p = ptr[j] + skip_front; p < ptr[j + 1] - skip_back; ++p) {
      ++row_ptr[idx[p] + 1];
    }
  }
  for (Index i = 0; i < n; ++i) row_ptr[i + 1] += row_ptr[i];
  row_idx.resize(static_cast<std::size_t>(row_ptr[n]));
  std::vector<Index> next(row_ptr.begin(), row_ptr.end() - 1);
  for (Index j = 0; j < n; ++j) {
    for (Index p = ptr[j] + skip_front; p < ptr[j + 1] - skip_back; ++p) {
      row_idx[next[idx[p]]++] = j;
    }
  }
}

// Lists the nonzero positions of x, ascending.
void scan_pattern(const Vector& x, std::vector<Index>& pattern) {
  pattern.clear();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] != 0.0) pattern.push_back(static_cast<Index>(i));
  }
}

// Sorts `pattern` ascending and drops the positions whose value cancelled
// to zero (clearing them to +0).
void sort_and_compact(Vector& x, std::vector<Index>& pattern) {
  std::sort(pattern.begin(), pattern.end());
  std::size_t kept = 0;
  for (Index i : pattern) {
    if (x[i] != 0.0) {
      pattern[kept++] = i;
    } else {
      x[i] = 0.0;
    }
  }
  pattern.resize(kept);
}

// Largest reach a hyper-sparse pass may grow before going dense.
std::size_t dense_limit(Index n) {
  return static_cast<std::size_t>(kDenseDensity * static_cast<double>(n));
}

// Grows `reach` (its entries marked) to everything reachable through the
// graph whose node j has children idx[ptr[j] + skip_front .. ptr[j + 1] -
// skip_back). `reach` doubles as the work list: every node is listed once,
// when it is first marked, and expanded in list order; only the set
// matters, as the caller sorts it into pivotal order. Returns false once
// the reach outgrows `limit`. Clears every mark either way.
bool grow_reach(const std::vector<Index>& ptr, const std::vector<Index>& idx,
                Index skip_front, Index skip_back, std::size_t limit,
                std::vector<char>& mark, std::vector<Index>& reach) {
  bool within = reach.size() <= limit;
  for (std::size_t k = 0; within && k < reach.size(); ++k) {
    const Index j = reach[k];
    for (Index p = ptr[j] + skip_front; p < ptr[j + 1] - skip_back; ++p) {
      const Index child = idx[p];
      if (mark[child]) continue;
      mark[child] = 1;
      reach.push_back(child);
    }
    within = reach.size() <= limit;
  }
  for (Index j : reach) mark[j] = 0;
  return within;
}

// Keeps the entries of `reach` whose value in y is nonzero (clearing the
// others to +0) and marks them: the seeds of the next pass.
void reseed(Vector& y, std::vector<char>& mark, std::vector<Index>& reach) {
  std::size_t kept = 0;
  for (Index j : reach) {
    if (y[j] != 0.0) {
      reach[kept++] = j;
      mark[j] = 1;
    } else {
      y[j] = 0.0;
    }
  }
  reach.resize(kept);
}

// Depth-first search from node `start` over the graph of L (columns indexed
// through pinv), pushing nodes onto `order` in reverse-topological order.
// Nodes whose rows are not yet pivotal are leaves. Iterative to avoid stack
// overflow on long chains.
void reach_dfs(Index start, const std::vector<Index>& l_ptr,
               const std::vector<Index>& l_idx, const std::vector<Index>& pinv,
               std::vector<char>& visited, std::vector<Index>& stack,
               std::vector<Index>& pos_stack, std::vector<Index>& order) {
  if (visited[start]) return;
  stack.clear();
  pos_stack.clear();
  stack.push_back(start);
  // pos_stack mirrors stack: next child offset to explore for each frame.
  pos_stack.push_back(0);
  visited[start] = 1;
  while (!stack.empty()) {
    const Index node = stack.back();
    const Index col = pinv[node];  // column of L associated with this row
    bool descended = false;
    if (col >= 0) {
      // Skip the unit diagonal (first entry of the column).
      Index p = l_ptr[col] + 1 + pos_stack.back();
      const Index end = l_ptr[col + 1];
      for (; p < end; ++p) {
        const Index child = l_idx[p];
        pos_stack.back() = p - (l_ptr[col] + 1) + 1;
        if (!visited[child]) {
          visited[child] = 1;
          stack.push_back(child);
          pos_stack.push_back(0);
          descended = true;
          break;
        }
      }
    }
    if (!descended) {
      order.push_back(node);
      stack.pop_back();
      pos_stack.pop_back();
    }
  }
}

}  // namespace

FactorStatus LuFactorization::factorize(const SparseMatrix& b) {
  assert(b.rows() == b.cols());
  n_ = b.rows();
  etas_.clear();
  work_.assign(static_cast<std::size_t>(n_), 0.0);
  mark_.assign(static_cast<std::size_t>(n_), 0);
  reach_.clear();
  reach_.reserve(static_cast<std::size_t>(n_));

  // Column ordering: fewest nonzeros first — a cheap fill-reducing heuristic
  // that works well for the mostly-triangular bases simplex produces.
  q_.resize(static_cast<std::size_t>(n_));
  std::iota(q_.begin(), q_.end(), 0);
  std::stable_sort(q_.begin(), q_.end(), [&b](Index x, Index y) {
    return b.col_end(x) - b.col_begin(x) < b.col_end(y) - b.col_begin(y);
  });

  pinv_.assign(static_cast<std::size_t>(n_), -1);
  l_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  u_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  l_idx_.clear();
  l_val_.clear();
  u_idx_.clear();
  u_val_.clear();
  // Rough guess; vectors grow as needed.
  l_idx_.reserve(static_cast<std::size_t>(b.nonzeros()) * 2);
  l_val_.reserve(static_cast<std::size_t>(b.nonzeros()) * 2);
  u_idx_.reserve(static_cast<std::size_t>(b.nonzeros()) * 2);
  u_val_.reserve(static_cast<std::size_t>(b.nonzeros()) * 2);

  Vector x(static_cast<std::size_t>(n_), 0.0);
  std::vector<char> visited(static_cast<std::size_t>(n_), 0);
  std::vector<Index> order, stack, pos_stack;
  order.reserve(static_cast<std::size_t>(n_));

  for (Index k = 0; k < n_; ++k) {
    l_ptr_[k] = static_cast<Index>(l_idx_.size());
    u_ptr_[k] = static_cast<Index>(u_idx_.size());
    const Index col = q_[k];

    // Pattern of x = L \ B(:,col): DFS reach over current L.
    order.clear();
    for (Index p = b.col_begin(col); p < b.col_end(col); ++p) {
      reach_dfs(b.row_idx()[p], l_ptr_, l_idx_, pinv_, visited, stack,
                pos_stack, order);
    }
    // `order` is reverse-topological; process from the back for the numeric
    // triangular solve.
    for (Index p = b.col_begin(col); p < b.col_end(col); ++p) {
      x[b.row_idx()[p]] = b.values()[p];
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const Index i = *it;
      const Index lcol = pinv_[i];
      if (lcol < 0) continue;  // row not pivotal: stays in the active part
      const double xi = x[i];
      if (xi == 0.0) continue;
      for (Index p = l_ptr_[lcol] + 1; p < l_ptr_[lcol + 1]; ++p) {
        x[l_idx_[p]] -= l_val_[p] * xi;
      }
    }

    // Partial pivoting: largest magnitude among not-yet-pivotal rows.
    Index ipiv = -1;
    double best = 0.0;
    for (Index i : order) {
      if (pinv_[i] < 0) {
        const double a = std::abs(x[i]);
        if (a > best) {
          best = a;
          ipiv = i;
        }
      }
    }
    if (ipiv < 0 || best <= kPivotTol) {
      // Clean scratch before bailing out.
      for (Index i : order) {
        x[i] = 0.0;
        visited[i] = 0;
      }
      return FactorStatus::kSingular;
    }

    // Emit U(:,k): entries in already-pivotal rows, diagonal last.
    for (Index i : order) {
      if (pinv_[i] >= 0 && x[i] != 0.0) {
        u_idx_.push_back(pinv_[i]);
        u_val_.push_back(x[i]);
      }
    }
    const double pivot = x[ipiv];
    u_idx_.push_back(k);
    u_val_.push_back(pivot);
    pinv_[ipiv] = k;

    // Emit L(:,k): unit diagonal first, then below-diagonal entries scaled by
    // the pivot. Row indices are original; remapped to pivotal order below.
    l_idx_.push_back(ipiv);
    l_val_.push_back(1.0);
    for (Index i : order) {
      if (pinv_[i] < 0 && x[i] != 0.0) {
        l_idx_.push_back(i);
        l_val_.push_back(x[i] / pivot);
      }
    }

    for (Index i : order) {
      x[i] = 0.0;
      visited[i] = 0;
    }
  }
  l_ptr_[n_] = static_cast<Index>(l_idx_.size());
  u_ptr_[n_] = static_cast<Index>(u_idx_.size());

  // Remap L's row indices into pivotal order so both factors live in the
  // permuted index space.
  for (Index& i : l_idx_) i = pinv_[i];

  // What the hyper-sparse solves need besides the factors: the inverse
  // permutations and the row-wise patterns of L and U (diagonals skipped:
  // first in each L column, last in each U column).
  p_.resize(static_cast<std::size_t>(n_));
  qinv_.resize(static_cast<std::size_t>(n_));
  for (Index i = 0; i < n_; ++i) p_[pinv_[i]] = i;
  for (Index k = 0; k < n_; ++k) qinv_[q_[k]] = k;
  transpose_pattern(n_, l_ptr_, l_idx_, 1, 0, lr_ptr_, lr_idx_);
  transpose_pattern(n_, u_ptr_, u_idx_, 0, 1, ur_ptr_, ur_idx_);
  return FactorStatus::kOk;
}

// ---- Triangular solves on work_, in pivotal space. Each step is one
// column of L or U, or one row of U^T or L^T; the dense passes run the
// steps over every j, the hyper-sparse solves over the sorted reach.

inline void LuFactorization::l_step(Index j) const {
  // L y = y: unit diagonal first in each column.
  Vector& y = work_;
  const double yj = y[j];
  if (yj == 0.0) return;
  for (Index p = l_ptr_[j] + 1; p < l_ptr_[j + 1]; ++p) {
    y[l_idx_[p]] -= l_val_[p] * yj;
  }
}

inline void LuFactorization::u_step(Index j) const {
  // U y = y: diagonal last in each column.
  Vector& y = work_;
  const Index diag = u_ptr_[j + 1] - 1;
  const double yj = y[j] / u_val_[diag];
  y[j] = yj;
  if (yj == 0.0) return;
  for (Index p = u_ptr_[j]; p < diag; ++p) {
    y[u_idx_[p]] -= u_val_[p] * yj;
  }
}

inline void LuFactorization::ut_step(Index j) const {
  // U^T v = y: column j of U gives row j of U^T.
  Vector& y = work_;
  double s = y[j];
  const Index diag = u_ptr_[j + 1] - 1;
  for (Index p = u_ptr_[j]; p < diag; ++p) {
    s -= u_val_[p] * y[u_idx_[p]];
  }
  y[j] = s / u_val_[diag];
}

inline void LuFactorization::lt_step(Index j) const {
  // L^T w = v.
  Vector& y = work_;
  double s = y[j];
  for (Index p = l_ptr_[j] + 1; p < l_ptr_[j + 1]; ++p) {
    s -= l_val_[p] * y[l_idx_[p]];
  }
  y[j] = s;
}

void LuFactorization::dense_l() const {
  for (Index j = 0; j < n_; ++j) l_step(j);
}

void LuFactorization::dense_u() const {
  for (Index j = n_ - 1; j >= 0; --j) u_step(j);
}

void LuFactorization::dense_ut() const {
  for (Index j = 0; j < n_; ++j) ut_step(j);
}

void LuFactorization::dense_lt() const {
  for (Index j = n_ - 1; j >= 0; --j) lt_step(j);
}

void LuFactorization::dense_etas(Vector& x) const {
  // Apply eta inverses in application order: B = B0 E1 E2 ... Ek, so
  // x = Ek^{-1} ... E1^{-1} B0^{-1} b.
  for (const Eta& e : etas_) {
    const double zp = x[e.pos] / e.pivot;
    x[e.pos] = zp;
    if (zp == 0.0) continue;
    for (std::size_t i = 0; i < e.idx.size(); ++i) {
      x[e.idx[i]] -= e.val[i] * zp;
    }
  }
}

void LuFactorization::dense_etas_transposed(Vector& x) const {
  // B^T = Ek^T ... E1^T B0^T: peel eta transposes in reverse order first.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const Eta& e = *it;
    double s = x[e.pos];
    for (std::size_t i = 0; i < e.idx.size(); ++i) {
      s -= e.val[i] * x[e.idx[i]];
    }
    x[e.pos] = s / e.pivot;
  }
}

void LuFactorization::base_ftran(Vector& x) const {
  // x := Q * (U \ (L \ (P x))).
  Vector& y = work_;
  for (Index i = 0; i < n_; ++i) y[pinv_[i]] = x[i];
  dense_l();
  dense_u();
  for (Index k = 0; k < n_; ++k) {
    x[q_[k]] = y[k];
    y[k] = 0.0;
  }
}

void LuFactorization::base_btran(Vector& x) const {
  // Solve B^T y = x where B = P^T L U Q^T:  y = P^T (L^T \ (U^T \ (Q^T x))).
  Vector& y = work_;
  for (Index k = 0; k < n_; ++k) y[k] = x[q_[k]];
  dense_ut();
  dense_lt();
  for (Index i = 0; i < n_; ++i) x[i] = y[pinv_[i]];
  std::fill(y.begin(), y.end(), 0.0);
}

void LuFactorization::ftran(Vector& rhs) const {
  assert(static_cast<Index>(rhs.size()) == n_);
  base_ftran(rhs);
  dense_etas(rhs);
}

void LuFactorization::btran(Vector& rhs) const {
  assert(static_cast<Index>(rhs.size()) == n_);
  dense_etas_transposed(rhs);
  base_btran(rhs);
}

// ---- Hyper-sparse solves.

void LuFactorization::ftran(Vector& rhs, std::vector<Index>& pattern) const {
  assert(static_cast<Index>(rhs.size()) == n_);
  const std::size_t limit = dense_limit(n_);
  if (pattern.size() > limit) {
    ftran(rhs);
    scan_pattern(rhs, pattern);
    return;
  }
  Vector& y = work_;
  reach_.clear();
  for (Index i : pattern) {
    const Index k = pinv_[i];
    y[k] = rhs[i];
    rhs[i] = 0.0;
    mark_[k] = 1;
    reach_.push_back(k);
  }
  bool sparse = grow_reach(l_ptr_, l_idx_, 1, 0, limit, mark_, reach_);
  if (sparse) {
    std::sort(reach_.begin(), reach_.end());
    for (Index j : reach_) l_step(j);
    reseed(y, mark_, reach_);
    sparse = grow_reach(u_ptr_, u_idx_, 0, 1, limit, mark_, reach_);
    if (!sparse) dense_u();
  } else {
    dense_l();
    dense_u();
  }

  if (!sparse) {
    // Dense finish: the rest of the solve runs over every row.
    for (Index k = 0; k < n_; ++k) {
      rhs[q_[k]] = y[k];
      y[k] = 0.0;
    }
    dense_etas(rhs);
    scan_pattern(rhs, pattern);
    return;
  }

  std::sort(reach_.begin(), reach_.end(), std::greater<>());
  for (Index j : reach_) u_step(j);
  pattern.clear();
  for (Index k : reach_) {
    const double v = y[k];
    y[k] = 0.0;
    if (v == 0.0) continue;
    rhs[q_[k]] = v;
    pattern.push_back(q_[k]);
  }
  // Eta inverses in application order, growing the pattern. An eta whose
  // pivot position is outside the pattern divides a structural zero and
  // changes nothing.
  for (Index i : pattern) mark_[i] = 1;
  for (const Eta& e : etas_) {
    if (!mark_[e.pos]) continue;
    const double zp = rhs[e.pos] / e.pivot;
    rhs[e.pos] = zp;
    if (zp == 0.0) continue;
    for (std::size_t i = 0; i < e.idx.size(); ++i) {
      const Index r = e.idx[i];
      rhs[r] -= e.val[i] * zp;
      if (!mark_[r]) {
        mark_[r] = 1;
        pattern.push_back(r);
      }
    }
  }
  for (Index i : pattern) mark_[i] = 0;
  sort_and_compact(rhs, pattern);
}

void LuFactorization::btran(Vector& rhs, std::vector<Index>& pattern) const {
  assert(static_cast<Index>(rhs.size()) == n_);
  const std::size_t limit = dense_limit(n_);
  if (pattern.size() > limit) {
    btran(rhs);
    scan_pattern(rhs, pattern);
    return;
  }
  // Eta transposes, newest first. Each is a dot product over the eta's
  // stored entries, in stored order; a result of zero at a position
  // outside the pattern leaves it a structural zero.
  for (Index i : pattern) mark_[i] = 1;
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    const Eta& e = *it;
    double s = rhs[e.pos];
    for (std::size_t i = 0; i < e.idx.size(); ++i) {
      s -= e.val[i] * rhs[e.idx[i]];
    }
    if (s == 0.0 && !mark_[e.pos]) continue;
    rhs[e.pos] = s / e.pivot;
    if (!mark_[e.pos]) {
      mark_[e.pos] = 1;
      pattern.push_back(e.pos);
    }
  }
  for (Index i : pattern) mark_[i] = 0;

  Vector& y = work_;
  reach_.clear();
  for (Index i : pattern) {
    const double v = rhs[i];
    rhs[i] = 0.0;
    if (v == 0.0) continue;
    const Index k = qinv_[i];
    y[k] = v;
    reach_.push_back(k);
  }
  for (Index k : reach_) mark_[k] = 1;
  bool sparse = grow_reach(ur_ptr_, ur_idx_, 0, 0, limit, mark_, reach_);
  if (sparse) {
    std::sort(reach_.begin(), reach_.end());
    for (Index j : reach_) ut_step(j);
    reseed(y, mark_, reach_);
    sparse = grow_reach(lr_ptr_, lr_idx_, 0, 0, limit, mark_, reach_);
    if (!sparse) dense_lt();
  } else {
    dense_ut();
    dense_lt();
  }

  if (!sparse) {
    for (Index i = 0; i < n_; ++i) rhs[i] = y[pinv_[i]];
    std::fill(y.begin(), y.end(), 0.0);
    scan_pattern(rhs, pattern);
    return;
  }

  std::sort(reach_.begin(), reach_.end(), std::greater<>());
  for (Index j : reach_) lt_step(j);
  pattern.clear();
  for (Index k : reach_) {
    const double v = y[k];
    y[k] = 0.0;
    if (v == 0.0) continue;
    rhs[p_[k]] = v;
    pattern.push_back(p_[k]);
  }
  std::sort(pattern.begin(), pattern.end());
}

bool LuFactorization::update(const Vector& w, const std::vector<Index>& pattern,
                             Index pos) {
  assert(static_cast<Index>(w.size()) == n_);
  assert(pos >= 0 && pos < n_);
  const double pivot = w[pos];
  if (std::abs(pivot) < kEtaPivotTol) return false;
  Eta e;
  e.pos = pos;
  e.pivot = pivot;
  e.idx.reserve(pattern.size());
  e.val.reserve(pattern.size());
  for (Index i : pattern) {
    if (i != pos && w[i] != 0.0) {
      e.idx.push_back(i);
      e.val.push_back(w[i]);
    }
  }
  etas_.push_back(std::move(e));
  return true;
}

bool LuFactorization::update(const Vector& w, Index pos) {
  std::vector<Index> pattern;
  scan_pattern(w, pattern);
  return update(w, pattern, pos);
}

}  // namespace postcard::linalg
