#include "lp/simplex.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <random>

namespace postcard::lp {

namespace {
constexpr double kDevexReset = 1e8;  // reference-weight cap before reset
constexpr double kFeasTol = 1e-7;    // bound violation tolerance
constexpr double kOptTol = 1e-7;     // reduced-cost tolerance
constexpr double kPivotTol = 1e-7;   // smallest ratio-test |w_i|
constexpr int kMinRowRoom = 4;       // spare row-view room past 2x a row's count

bool is_fixed(double lo, double hi) {
  return std::isfinite(lo) && std::isfinite(hi) && hi - lo <= 0.0;
}

// Default classification of a nonbasic column, shared by the start and by
// the columns a resume appends: at the bound nearest zero, or free at zero.
template <class Status>
void classify_default(double lo, double hi, Status& status, double& value,
                      Status at_lower, Status at_upper, Status free_status) {
  if (std::isfinite(lo) && (!std::isfinite(hi) || std::abs(lo) <= std::abs(hi))) {
    status = at_lower;
    value = lo;
  } else if (std::isfinite(hi)) {
    status = at_upper;
    value = hi;
  } else {
    status = free_status;
    value = 0.0;
  }
}
}  // namespace

void RevisedSimplex::cold_start() {
  art_row_.clear();
  art_sign_.clear();
  lower_.resize(static_cast<std::size_t>(n_ + m_));
  upper_.resize(static_cast<std::size_t>(n_ + m_));
  x_.assign(static_cast<std::size_t>(n_ + m_), 0.0);
  vstat_.assign(static_cast<std::size_t>(n_ + m_), VarStatus::kFree);
  basic_pos_.assign(static_cast<std::size_t>(n_ + m_), -1);
  for (int j = 0; j < n_; ++j) {
    classify_default(lower_[j], upper_[j], vstat_[j], x_[j],
                     VarStatus::kAtLower, VarStatus::kAtUpper, VarStatus::kFree);
  }

  linalg::Vector activity(static_cast<std::size_t>(m_), 0.0);
  for (int j = 0; j < n_; ++j) {
    if (x_[j] == 0.0) continue;
    for (linalg::Index p = a_.col_begin(j); p < a_.col_end(j); ++p) {
      activity[a_.row_idx()[p]] += a_.values()[p] * x_[j];
    }
  }

  // A row the starting point satisfies keeps its logical basic; a violated
  // row pins its logical at the violated bound and leaves the residual to a
  // column singleton or an artificial.
  basis_.assign(static_cast<std::size_t>(m_), -1);
  row_art_.assign(static_cast<std::size_t>(m_), -1);
  for (int i = 0; i < m_; ++i) {
    const int lj = n_ + i;
    const double g = activity[i];
    const double lo = lower_[lj], hi = upper_[lj];
    const double scale =
        1.0 + std::max(std::isfinite(lo) ? std::abs(lo) : 0.0,
                       std::isfinite(hi) ? std::abs(hi) : 0.0);
    if (g >= lo - kFeasTol * scale && g <= hi + kFeasTol * scale) {
      basis_[i] = lj;
      vstat_[lj] = VarStatus::kBasic;
      basic_pos_[lj] = i;
      x_[lj] = g;
    } else if (g > hi) {
      vstat_[lj] = VarStatus::kAtUpper;
      x_[lj] = hi;
    } else {
      vstat_[lj] = VarStatus::kAtLower;
      x_[lj] = lo;
    }
  }

  // Singleton crash (Bixby, ORSA J. on Computing 4(3), 1992): a violated
  // row takes the lowest-index structural column whose only entry lies in
  // it and which absorbs the row's residual within its own bounds. On a
  // column-generation round-0 master these are the unrouted columns z_k of
  // the demand rows, so the crash basis is the one phase 1 would end in.
  for (int j = 0; j < n_; ++j) {
    if (a_.col_end(j) - a_.col_begin(j) != 1) continue;
    const linalg::Index p = a_.col_begin(j);
    const int i = static_cast<int>(a_.row_idx()[p]);
    const double a = a_.values()[p];
    if (basis_[i] >= 0 || a == 0.0) continue;
    const double value = x_[j] + (x_[n_ + i] - activity[i]) / a;
    if (!std::isfinite(value) || value < lower_[j] || value > upper_[j]) {
      continue;
    }
    basis_[i] = j;
    vstat_[j] = VarStatus::kBasic;
    basic_pos_[j] = i;
    x_[j] = value;
  }

  // Every other violated row gets an artificial, which absorbs the residual
  // and enters the basis. The row reads a^T x - s + sign * t = 0, so
  // sign = -1 absorbs a positive residual (g > hi) and sign = +1 a negative
  // one (g < lo).
  for (int i = 0; i < m_; ++i) {
    if (basis_[i] >= 0) continue;
    const int lj = n_ + i;
    double sign, value;
    if (vstat_[lj] == VarStatus::kAtUpper) {
      sign = -1.0;
      value = activity[i] - x_[lj];
    } else {
      sign = 1.0;
      value = x_[lj] - activity[i];
    }
    row_art_[i] = static_cast<int>(art_row_.size());
    art_row_.push_back(i);
    art_sign_.push_back(sign);
    const int aj = n_ + m_ + static_cast<int>(art_row_.size()) - 1;
    lower_.push_back(0.0);
    upper_.push_back(kInfinity);
    x_.push_back(value);
    vstat_.push_back(VarStatus::kBasic);
    basic_pos_.push_back(i);
    basis_[i] = aj;
  }
}

Solution RevisedSimplex::solve(const LpModel& model, SolveBudget* budget) {
  budget_ = budget && budget->limited() ? budget : nullptr;
  a_ = model.build_matrix();
  matrix_entries_ = model.num_entries();
  n_ = model.num_variables();
  m_ = model.num_constraints();
  rebuild_rows();
  art_row_.clear();
  art_sign_.clear();

  {
    linalg::LuFactorization::Options lu_opts;
    lu_opts.max_updates = options_.refactor_interval;
    lu_ = linalg::LuFactorization(lu_opts);
  }

  lower_.assign(static_cast<std::size_t>(n_ + m_), 0.0);
  upper_.assign(static_cast<std::size_t>(n_ + m_), 0.0);
  for (int j = 0; j < n_; ++j) {
    lower_[j] = model.col_lower()[j];
    upper_[j] = model.col_upper()[j];
  }
  for (int i = 0; i < m_; ++i) {
    lower_[n_ + i] = model.row_lower()[i];
    upper_[n_ + i] = model.row_upper()[i];
  }

  cold_start();
  if (!refactorize()) {
    Solution result;
    result.status = SolveStatus::kNumericalFailure;
    last_status_ = result.status;
    return result;
  }
  // No artificial left after the crash: the start is primal feasible and
  // the solve goes straight to phase 2.
  const bool feasible_start = art_row_.empty();

  const int total = total_variables();
  cost_.assign(static_cast<std::size_t>(total), 0.0);
  base_cost_.assign(static_cast<std::size_t>(total), 0.0);
  d_.assign(static_cast<std::size_t>(total), 0.0);
  devex_.assign(static_cast<std::size_t>(total), 1.0);
  work_y_.assign(static_cast<std::size_t>(m_), 0.0);
  work_w_.assign(static_cast<std::size_t>(m_), 0.0);
  work_rho_.assign(static_cast<std::size_t>(m_), 0.0);
  work_rhs_.assign(static_cast<std::size_t>(m_), 0.0);
  work_alpha_.assign(static_cast<std::size_t>(total), 0.0);
  in_row_.assign(static_cast<std::size_t>(n_), 0);

  stat_degenerate_ = stat_flips_ = 0;
  recompute_basic_values();

  long iterations = 0;
  long phase1_iterations = 0;
  const long limit = options_.max_iterations >= 0
                         ? options_.max_iterations
                         : 2000 + 100L * (m_ + n_);

  // ---- Phase 1: drive the artificials to zero.
  if (!art_row_.empty()) {
    for (std::size_t k = 0; k < art_row_.size(); ++k) base_cost_[n_ + m_ + k] = 1.0;
    phase1_stop_when_feasible_ = true;
    const SolveStatus s1 = run_perturbed_phase(0x9e3779b9u, &iterations, limit);
    phase1_stop_when_feasible_ = false;
    if (s1 == SolveStatus::kUnbounded || s1 == SolveStatus::kNumericalFailure) {
      return finish_solution(model, SolveStatus::kNumericalFailure, iterations,
                             phase1_iterations, feasible_start);
    }
    if (s1 == SolveStatus::kIterationLimit ||
        s1 == SolveStatus::kDeadlineExceeded) {
      return finish_solution(model, s1, iterations, phase1_iterations,
                             feasible_start);
    }
    phase1_iterations = iterations;

    double infeasibility = 0.0;
    for (std::size_t k = 0; k < art_row_.size(); ++k) {
      infeasibility += std::abs(x_[n_ + m_ + k]);
    }
    if (infeasibility > kFeasTol * (1.0 + infeasibility)) {
      return finish_solution(model, SolveStatus::kInfeasible, iterations,
                             phase1_iterations, feasible_start);
    }
    for (std::size_t k = 0; k < art_row_.size(); ++k) {
      const int aj = n_ + m_ + static_cast<int>(k);
      lower_[aj] = 0.0;
      upper_[aj] = 0.0;
      base_cost_[aj] = 0.0;
      if (vstat_[aj] != VarStatus::kBasic) x_[aj] = 0.0;
    }
    // Normalize the numerical state at the phase boundary: a fresh
    // factorization of the end-of-phase-1 basis and basic values recomputed
    // from it, the state a start without artificials enters phase 2 with.
    // Every LP that still runs phase 1 (the flow baseline's stage 2, the
    // Sec. VI extensions, the direct formulation) follows this rule, and
    // dropping it would move their pivot sequences.
    if (!refactorize()) {
      return finish_solution(model, SolveStatus::kNumericalFailure, iterations,
                             phase1_iterations, feasible_start);
    }
    recompute_basic_values();
  }

  // ---- Phase 2: true objective.
  for (int j = 0; j < n_; ++j) base_cost_[j] = model.objective()[j];
  for (int j = n_; j < total; ++j) base_cost_[j] = 0.0;
  const SolveStatus s2 = run_perturbed_phase(0x7f4a7c15u, &iterations, limit);
  return finish_solution(model, s2, iterations, phase1_iterations,
                         feasible_start);
}

Solution RevisedSimplex::finish_solution(const LpModel& model,
                                         SolveStatus status, long iterations,
                                         long phase1_iterations,
                                         bool warm_started) {
  Solution result;
  result.status = status;
  result.iterations = iterations;
  result.phase1_iterations = phase1_iterations;
  result.warm_started = warm_started;
  result.degenerate_pivots = stat_degenerate_;
  result.bound_flips = stat_flips_;
  result.x.assign(x_.begin(), x_.begin() + n_);
  if (status == SolveStatus::kOptimal ||
      status == SolveStatus::kIterationLimit ||
      status == SolveStatus::kDeadlineExceeded) {
    result.objective = model.objective_value(result.x);
    // Duals against the true costs.
    for (int i = 0; i < m_; ++i) work_y_[i] = base_cost_[basis_[i]];
    lu_.btran(work_y_);
    result.duals = work_y_;
  }
  last_status_ = status;
  return result;
}

// A phase is first run with perturbed costs; both a claimed optimum and a
// claimed unbounded ray are then re-verified against the true costs (the
// perturbation gives flat directions a slope, so a zero-cost ray with an
// infinite bound looks falsely unbounded).
SolveStatus RevisedSimplex::run_perturbed_phase(unsigned seed,
                                                long* iterations,
                                                long iteration_limit) {
  apply_perturbation(seed);
  SolveStatus s = run_phase(iterations, iteration_limit);
  if (s == SolveStatus::kOptimal || s == SolveStatus::kUnbounded) {
    remove_perturbation();
    s = run_phase(iterations, iteration_limit);
  }
  return s;
}

bool RevisedSimplex::can_resume(const LpModel& model) const {
  if (last_status_ != SolveStatus::kOptimal) return false;
  if (m_ <= 0 || basis_.empty()) return false;
  if (model.num_constraints() != m_) return false;
  const int new_n = model.num_variables();
  if (new_n < n_) return false;
  // An artificial still basic (degenerate phase-1 leftover at zero) would
  // have to survive the resume; dropping to a cold start instead keeps the
  // resumed state artificial-free.
  for (int i = 0; i < m_; ++i) {
    if (basis_[i] >= n_ + m_) return false;
  }
  // The matrix may only grow by appended columns: an entry past the
  // watermark that lands in an existing column changes the columns the
  // incumbent basis, point and LU factorization were computed from.
  const auto& entries = model.entries();
  if (entries.size() < static_cast<std::size_t>(matrix_entries_)) return false;
  for (std::size_t e = static_cast<std::size_t>(matrix_entries_);
       e < entries.size(); ++e) {
    if (entries[e].col < n_) return false;
  }
  // The resume keeps the incumbent's costs and the duals finish_solution()
  // computed from them: an edited cost on an existing column would price
  // the resumed phase against stale values.
  const std::vector<double>& objective = model.objective();
  for (int j = 0; j < n_; ++j) {
    if (objective[j] != base_cost_[j]) return false;
  }
  // Appended columns must enter at value zero, or the incumbent basic
  // point (whose activities ignore them) would no longer be feasible.
  for (int j = n_; j < new_n; ++j) {
    const double lo = model.col_lower()[j];
    const double hi = model.col_upper()[j];
    VarStatus st;
    double value;
    classify_default(lo, hi, st, value, VarStatus::kAtLower,
                     VarStatus::kAtUpper, VarStatus::kFree);
    if (value != 0.0) return false;
  }
  return true;
}

Solution RevisedSimplex::resolve(const LpModel& model, SolveBudget* budget) {
  if (!can_resume(model)) return solve(model, budget);
  budget_ = budget && budget->limited() ? budget : nullptr;

  const int old_n = n_;
  const int delta = model.num_variables() - old_n;
  n_ = model.num_variables();

  // Append only the entry triplets past the watermark, each of which
  // can_resume() checked lands in an appended column, to the matrix and to
  // its row view: the resume costs what was appended, not the whole matrix.
  a_.append_columns(static_cast<linalg::Index>(delta), model.entries(),
                    static_cast<std::size_t>(matrix_entries_));
  append_rows(old_n);
  matrix_entries_ = model.num_entries();

  // Drop the (all-nonbasic, fixed-at-zero) artificials and open a gap for
  // the appended columns: logicals move from old_n + i to n_ + i, and every
  // other entry of the variable-indexed state stays where it is.
  art_row_.clear();
  art_sign_.clear();
  const auto shift = [&](auto& v, auto gap_value) {
    v.resize(static_cast<std::size_t>(old_n + m_));
    v.insert(v.begin() + old_n, static_cast<std::size_t>(delta), gap_value);
  };
  shift(lower_, 0.0);
  shift(upper_, 0.0);
  shift(x_, 0.0);
  shift(vstat_, VarStatus::kFree);
  shift(basic_pos_, -1);
  shift(base_cost_, 0.0);
  // The kept costs are unchanged (can_resume()) and logicals cost zero, so
  // only the appended costs can raise dual_tol_. Rounding is monotone, so
  // the running max of kOptTol * |c_j| is exactly kOptTol * max |c_j|.
  for (int j = old_n; j < n_; ++j) {
    lower_[j] = model.col_lower()[j];
    upper_[j] = model.col_upper()[j];
    base_cost_[j] = model.objective()[j];
    dual_tol_ = std::max(dual_tol_, kOptTol * std::abs(base_cost_[j]));
    classify_default(lower_[j], upper_[j], vstat_[j], x_[j],
                     VarStatus::kAtLower, VarStatus::kAtUpper, VarStatus::kFree);
  }
  for (int i = 0; i < m_; ++i) {
    if (basis_[i] >= old_n) basis_[i] += delta;
  }

  // The LU factorization and its product-form updates stay valid: the basis
  // holds only pre-existing structural columns and logicals, whose
  // coefficients are untouched by an append-only model change. Phase 1 is
  // unnecessary: the incumbent basic point (new columns at zero) is the
  // previous optimum, which is feasible. d_ is rewritten and devex_ reset
  // at phase entry; work_alpha_ and in_row_ are zero between pivots.
  const std::size_t total = static_cast<std::size_t>(total_variables());
  cost_ = base_cost_;
  d_.resize(total);
  devex_.resize(total);
  work_alpha_.resize(total, 0.0);
  in_row_.resize(static_cast<std::size_t>(n_), 0);

  stat_degenerate_ = stat_flips_ = 0;
  long iterations = 0;
  const long limit = options_.max_iterations >= 0
                         ? options_.max_iterations
                         : 2000 + 100L * (m_ + n_);
  // A resume extends an already-optimal trajectory by a handful of pivots.
  // The perturb-then-verify cycle solve() runs (two full phase entries, each
  // re-deriving duals and reduced costs from scratch) would roughly double
  // the fixed cost of every master round for anti-degeneracy protection the
  // EXPAND minimum step already provides on these short tails — so a resume
  // prices the true costs directly in a single phase. Its entry reuses the
  // duals finish_solution() left in work_y_: basis, LU and c_B are those
  // they were computed from, so a fresh BTRAN would return the same bits.
  const SolveStatus s = run_phase(&iterations, limit, /*duals_current=*/true);
  if (s == SolveStatus::kNumericalFailure) {
    // The resumed trajectory died (e.g. a refactorization of a drifted
    // basis failed); a cold solve rebuilds everything from scratch.
    return solve(model, budget);
  }
  return finish_solution(model, s, iterations, 0, true);
}

void RevisedSimplex::apply_perturbation(unsigned seed) {
  cost_ = base_cost_;
  if (options_.perturbation > 0.0) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(0.5, 1.0);
    for (int j = 0; j < total_variables(); ++j) {
      if (is_fixed(lower_[j], upper_[j])) continue;
      cost_[j] += options_.perturbation * (1.0 + std::abs(cost_[j])) * u(rng);
    }
  }
  set_dual_tolerance();
}

void RevisedSimplex::remove_perturbation() {
  cost_ = base_cost_;
  set_dual_tolerance();
}

void RevisedSimplex::set_dual_tolerance() {
  double cost_scale = 1.0;
  for (const double c : cost_) cost_scale = std::max(cost_scale, std::abs(c));
  dual_tol_ = kOptTol * cost_scale;
}

// Counting-sort transpose of a_ with spare room after every row. Column
// order within each row is ascending because the fill pass walks columns
// ascending, so the scatters over rows accumulate per-column terms in
// exactly the order a dot product down the column would.
void RevisedSimplex::rebuild_rows() {
  const auto& rows = a_.row_idx();
  const auto& vals = a_.values();
  row_begin_.resize(static_cast<std::size_t>(m_));
  row_room_.resize(static_cast<std::size_t>(m_));
  row_end_.assign(static_cast<std::size_t>(m_), 0);
  for (const linalg::Index i : rows) ++row_end_[i];
  int at = 0;
  for (int i = 0; i < m_; ++i) {
    const int count = row_end_[i];
    row_begin_[i] = row_end_[i] = at;
    at += 2 * count + kMinRowRoom;
    row_room_[i] = at;
  }
  row_col_.resize(static_cast<std::size_t>(at));
  row_val_.resize(static_cast<std::size_t>(at));
  for (int j = 0; j < n_; ++j) {
    for (linalg::Index p = a_.col_begin(j); p < a_.col_end(j); ++p) {
      const int slot = row_end_[rows[p]]++;
      row_col_[slot] = j;
      row_val_[slot] = vals[p];
    }
  }
}

// Appended columns have the highest indices, so pushing their entries in
// ascending column order keeps every row ascending. A full row moves to the
// end of the arena with double its room, so an append is amortized O(1).
void RevisedSimplex::append_rows(int first_col) {
  for (int j = first_col; j < n_; ++j) {
    for (linalg::Index p = a_.col_begin(j); p < a_.col_end(j); ++p) {
      const int i = static_cast<int>(a_.row_idx()[p]);
      if (row_end_[i] == row_room_[i]) {
        const int len = row_end_[i] - row_begin_[i];
        const int at = static_cast<int>(row_col_.size());
        row_col_.resize(static_cast<std::size_t>(at + 2 * len));
        row_val_.resize(static_cast<std::size_t>(at + 2 * len));
        std::copy_n(row_col_.begin() + row_begin_[i], len, row_col_.begin() + at);
        std::copy_n(row_val_.begin() + row_begin_[i], len, row_val_.begin() + at);
        row_begin_[i] = at;
        row_end_[i] = at + len;
        row_room_[i] = at + 2 * len;
      }
      row_col_[row_end_[i]] = j;
      row_val_[row_end_[i]++] = a_.values()[p];
    }
  }
}

bool RevisedSimplex::refactorize() {
  // The basis columns in basis order, straight into CSC: a_'s columns are
  // row-sorted and duplicate-free and logicals and artificials are
  // singletons, so no triplet sort is needed and the matrix is the one
  // from_triplets would build.
  std::vector<linalg::Index> col_ptr(static_cast<std::size_t>(m_) + 1, 0);
  std::vector<linalg::Index> row_idx;
  std::vector<double> values;
  row_idx.reserve(static_cast<std::size_t>(m_));
  values.reserve(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) {
    for_column(basis_[i], [&](int row, double v) {
      row_idx.push_back(static_cast<linalg::Index>(row));
      values.push_back(v);
    });
    col_ptr[i + 1] = static_cast<linalg::Index>(row_idx.size());
  }
  const auto b = linalg::SparseMatrix::from_csc(
      static_cast<linalg::Index>(m_), static_cast<linalg::Index>(m_),
      std::move(col_ptr), std::move(row_idx), std::move(values));
  return lu_.factorize(b) == linalg::FactorStatus::kOk;
}

void RevisedSimplex::recompute_basic_values() {
  work_rhs_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int j = 0; j < total_variables(); ++j) {
    if (vstat_[j] == VarStatus::kBasic || x_[j] == 0.0) continue;
    const double xj = x_[j];
    for_column(j, [&](int i, double v) { work_rhs_[i] -= v * xj; });
  }
  lu_.ftran(work_rhs_);
  for (int i = 0; i < m_; ++i) x_[basis_[i]] = work_rhs_[i];
}

void RevisedSimplex::recompute_reduced_costs(bool duals_current) {
  if (!duals_current) {
    for (int i = 0; i < m_; ++i) work_y_[i] = cost_[basis_[i]];
    lu_.btran(work_y_);
  }
  // Structural dot products a_j^T y, scattered from y's nonzero rows through
  // the row view into work_alpha_ (zero between pivots). Rows ascend, so
  // each column's terms arrive in column_dot()'s order; a row with y_i == 0
  // adds only +/-0 terms, which never change a sum that starts at +0.
  for (int i = 0; i < m_; ++i) {
    const double yi = work_y_[i];
    if (yi == 0.0) continue;
    for (int p = row_begin_[i]; p < row_end_[i]; ++p) {
      work_alpha_[row_col_[p]] += row_val_[p] * yi;
    }
  }
  const int total = total_variables();
  infeasible_.assign((static_cast<std::size_t>(total) + 63) / 64, 0);
  const auto price_from = [&](int j, double dot) {
    d_[j] = vstat_[j] == VarStatus::kBasic ? 0.0 : cost_[j] - dot;
    if (violation(j) > dual_tol_) {
      infeasible_[j / 64] |= std::uint64_t{1} << (j % 64);
    }
  };
  for (int j = 0; j < n_; ++j) {
    price_from(j, work_alpha_[j]);
    work_alpha_[j] = 0.0;
  }
  for (int j = n_; j < total; ++j) price_from(j, column_dot(j, work_y_));
}

void RevisedSimplex::refresh_price(int j) {
  const std::uint64_t bit = std::uint64_t{1} << (j % 64);
  if (violation(j) > dual_tol_) {
    infeasible_[j / 64] |= bit;
  } else {
    infeasible_[j / 64] &= ~bit;
  }
}

double RevisedSimplex::violation(int j) const {
  if (vstat_[j] == VarStatus::kBasic || is_fixed(lower_[j], upper_[j])) {
    return 0.0;
  }
  switch (vstat_[j]) {
    case VarStatus::kAtLower: return -d_[j];
    case VarStatus::kAtUpper: return d_[j];
    case VarStatus::kFree: return std::abs(d_[j]);
    case VarStatus::kBasic: break;
  }
  return 0.0;
}

int RevisedSimplex::price() const {
  // Devex score is v^2 / devex_j; the argmax is taken division-free by
  // cross-multiplying (weights are positive), which keeps the scan at one
  // multiply per candidate.
  // Candidates are exactly the set bits of infeasible_ (violation above
  // dual_tol_), visited in ascending index, so the first strict maximum
  // wins as it would in a scan over every variable.
  int best = -1;
  double best_v2 = 0.0;
  double best_w = 1.0;
  for (std::size_t w = 0; w < infeasible_.size(); ++w) {
    for (std::uint64_t bits = infeasible_[w]; bits != 0; bits &= bits - 1) {
      const int j = static_cast<int>(w * 64) + std::countr_zero(bits);
      const double v = violation(j);
      const double v2 = v * v;
      if (v2 * best_w > best_v2 * devex_[j]) {
        best_v2 = v2;
        best_w = devex_[j];
        best = j;
      }
    }
  }
  return best;
}

RevisedSimplex::StepResult RevisedSimplex::iterate() {
  if (lu_.should_refactorize()) {
    if (!refactorize()) return StepResult::kNumericalFailure;
    recompute_basic_values();
    recompute_reduced_costs();
  }

  const int q = price();
  if (q < 0) return StepResult::kOptimal;

  const double dq = d_[q];
  double sigma;
  switch (vstat_[q]) {
    case VarStatus::kAtLower: sigma = 1.0; break;
    case VarStatus::kAtUpper: sigma = -1.0; break;
    default: sigma = dq < 0.0 ? 1.0 : -1.0; break;
  }

  // w = B^{-1} a_q and its nonzero positions, ascending. Every pass over
  // basis positions below walks this pattern instead of all m rows; the
  // ascending order keeps pass 2's first-wins tie-break and the eta's entry
  // order those of a scan over every row.
  w_pattern_.clear();
  for_column(q, [&](int i, double v) {
    work_w_[i] = v;
    w_pattern_.push_back(i);
  });
  lu_.ftran(work_w_, w_pattern_);
  auto clear_w = [&] {
    for (const linalg::Index i : w_pattern_) work_w_[i] = 0.0;
  };

  // ---- Harris two-pass ratio test.
  double t_flip = kInfinity;
  if (std::isfinite(lower_[q]) && std::isfinite(upper_[q])) {
    t_flip = upper_[q] - lower_[q];
  }
  // Pass 1: step limit with bounds relaxed by the feasibility tolerance.
  double t_max = t_flip;
  for (const linalg::Index i : w_pattern_) {
    const double wbar = sigma * work_w_[i];
    if (std::abs(wbar) <= kPivotTol) continue;
    const int bj = basis_[i];
    double t_rel;
    if (wbar > 0.0) {
      if (!std::isfinite(lower_[bj])) continue;
      const double tau = kFeasTol * (1.0 + std::abs(lower_[bj]));
      t_rel = (x_[bj] - lower_[bj] + tau) / wbar;
    } else {
      if (!std::isfinite(upper_[bj])) continue;
      const double tau = kFeasTol * (1.0 + std::abs(upper_[bj]));
      t_rel = (x_[bj] - upper_[bj] - tau) / wbar;
    }
    if (t_rel < 0.0) t_rel = 0.0;
    t_max = std::min(t_max, t_rel);
  }
  // Pass 2: largest pivot among candidates within the relaxed limit.
  int leave_pos = -1;
  double leave_pivot = 0.0;
  double t_exact_chosen = kInfinity;
  for (const linalg::Index i : w_pattern_) {
    const double wbar = sigma * work_w_[i];
    if (std::abs(wbar) <= kPivotTol) continue;
    const int bj = basis_[i];
    double t_exact;
    if (wbar > 0.0) {
      if (!std::isfinite(lower_[bj])) continue;
      t_exact = (x_[bj] - lower_[bj]) / wbar;
    } else {
      if (!std::isfinite(upper_[bj])) continue;
      t_exact = (x_[bj] - upper_[bj]) / wbar;
    }
    if (t_exact < 0.0) t_exact = 0.0;
    if (t_exact <= t_max && std::abs(wbar) > std::abs(leave_pivot)) {
      leave_pivot = wbar;
      leave_pos = i;
      t_exact_chosen = t_exact;
    }
  }

  if (leave_pos < 0 && !std::isfinite(t_flip)) {
    clear_w();
    return StepResult::kUnbounded;
  }

  // Bound flip when it binds strictly before the best pivot candidate. On
  // an exact tie the pivot wins: in phase 1 the tie is structural (an
  // entering variable whose range equals the row's infeasibility), and
  // flipping would leave the artificial basic at zero. Every LP that still
  // runs phase 1 follows this rule, and dropping it would move their pivot
  // sequences.
  if (leave_pos < 0 || t_flip < t_exact_chosen) {
    const double t = t_flip;
    for (const linalg::Index i : w_pattern_) {
      x_[basis_[i]] -= sigma * t * work_w_[i];
    }
    x_[q] = vstat_[q] == VarStatus::kAtLower ? upper_[q] : lower_[q];
    vstat_[q] = vstat_[q] == VarStatus::kAtLower ? VarStatus::kAtUpper
                                                 : VarStatus::kAtLower;
    refresh_price(q);
    ++stat_flips_;
    clear_w();
    return StepResult::kStep;
  }

  // EXPAND-style anti-degeneracy: force a minimum step so the entering
  // variable always moves. The leaving variable overshoots its bound by at
  // most kMinStepFraction * kFeasTol; it is snapped back below, and the tiny
  // conservation error is flushed by recompute_basic_values() at the next
  // refactorization. Without this, the time-expanded network LPs stall on
  // >90% degenerate pivots.
  const double min_step =
      0.01 * kFeasTol / std::abs(leave_pivot);
  const double t =
      std::min(std::max(t_exact_chosen, min_step), std::max(t_max, 0.0));
  if (t_exact_chosen <= 1e-12) ++stat_degenerate_;
  if (t != 0.0) {
    for (const linalg::Index i : w_pattern_) {
      x_[basis_[i]] -= sigma * t * work_w_[i];
    }
  }

  const int r = basis_[leave_pos];
  const double xq_new = x_[q] + sigma * t;
  if (leave_pivot > 0.0) {
    vstat_[r] = VarStatus::kAtLower;
    x_[r] = lower_[r];
  } else {
    vstat_[r] = VarStatus::kAtUpper;
    x_[r] = upper_[r];
  }
  basic_pos_[r] = -1;

  // ---- Pivot-row pass: update reduced costs and Devex weights.
  const double alpha_q = work_w_[leave_pos];
  work_rho_[leave_pos] = 1.0;
  rho_pattern_.assign(1, static_cast<linalg::Index>(leave_pos));
  lu_.btran(work_rho_, rho_pattern_);
  const double d_ratio = dq / alpha_q;
  const double devex_q = devex_[q];
  bool reset_devex = false;
  // Assemble the pivot row alpha = rho^T [A | -I | art] by scattering the
  // nonzeros of rho across the matrix rows they touch, listing each
  // variable reached once in touched_. rho's pattern is ascending, so each
  // alpha_j accumulates its terms in exactly the order a dot product down
  // column j would: the results are bit-for-bit identical.
  touched_.clear();
  for (const linalg::Index i : rho_pattern_) {
    const double rho = work_rho_[i];
    work_rho_[i] = 0.0;
    for (int p = row_begin_[i]; p < row_end_[i]; ++p) {
      const int j = row_col_[p];
      if (!in_row_[j]) {
        in_row_[j] = 1;
        touched_.push_back(j);
      }
      work_alpha_[j] += row_val_[p] * rho;
    }
    work_alpha_[n_ + i] = -rho;
    touched_.push_back(n_ + static_cast<int>(i));
    if (!art_row_.empty() && row_art_[i] >= 0) {
      const int k = row_art_[i];
      work_alpha_[n_ + m_ + k] = art_sign_[k] * rho;
      touched_.push_back(n_ + m_ + k);
    }
  }
  // Every other variable has alpha_j == 0 and keeps its d_j and weight.
  for (const int j : touched_) {
    const double alpha_j = work_alpha_[j];
    work_alpha_[j] = 0.0;
    if (j < n_) in_row_[j] = 0;
    if (vstat_[j] == VarStatus::kBasic || j == q || alpha_j == 0.0) continue;
    d_[j] -= d_ratio * alpha_j;
    const double candidate = (alpha_j * alpha_j) / (alpha_q * alpha_q) * devex_q;
    if (candidate > devex_[j]) devex_[j] = candidate;
    if (devex_[j] > kDevexReset) reset_devex = true;
  }
  d_[r] = -d_ratio;
  devex_[r] = std::max(devex_q / (alpha_q * alpha_q), 1.0);
  if (devex_[r] > kDevexReset) reset_devex = true;

  vstat_[q] = VarStatus::kBasic;
  d_[q] = 0.0;
  basis_[leave_pos] = q;
  basic_pos_[q] = leave_pos;
  x_[q] = xq_new;

  if (reset_devex) std::fill(devex_.begin(), devex_.end(), 1.0);
  // Reduced costs and statuses changed only on the pivot row, r and q.
  for (const int j : touched_) refresh_price(j);
  refresh_price(r);
  refresh_price(q);

  const bool updated = lu_.update(work_w_, w_pattern_,
                                  static_cast<linalg::Index>(leave_pos));
  clear_w();
  if (!updated) {
    if (!refactorize()) return StepResult::kNumericalFailure;
    recompute_basic_values();
    recompute_reduced_costs();
  }
  return StepResult::kStep;
}

SolveStatus RevisedSimplex::run_phase(long* iterations, long iteration_limit,
                                      bool duals_current) {
  recompute_reduced_costs(duals_current);
  std::fill(devex_.begin(), devex_.end(), 1.0);
  // Phase 1 exists only to reach feasibility: once every artificial sits
  // exactly at zero the basis is primal feasible and further pivots would
  // only chase the perturbed costs of structural variables — wasted work
  // that also makes the phase-1 end basis drift unpredictably. Every LP
  // that still runs phase 1 follows this rule, and dropping it would move
  // their pivot sequences. The exact ==0 test is deliberate: a leaving
  // artificial is set to its bound exactly, while a lingering basic
  // artificial keeps phase 1 running as before.
  auto artificials_cleared = [&] {
    if (!phase1_stop_when_feasible_) return false;
    for (std::size_t k = 0; k < art_row_.size(); ++k) {
      if (x_[n_ + m_ + static_cast<int>(k)] != 0.0) return false;
    }
    return true;
  };
  while (*iterations < iteration_limit) {
    if (artificials_cleared()) return SolveStatus::kOptimal;
    // Cooperative cancellation: charge before pivoting, so an exhausted
    // budget stops at a consistent basic point (the last completed pivot).
    if (budget_ && !budget_->charge()) return SolveStatus::kDeadlineExceeded;
    const StepResult r = iterate();
    if (r == StepResult::kOptimal) return SolveStatus::kOptimal;
    ++*iterations;
    if (r == StepResult::kUnbounded) return SolveStatus::kUnbounded;
    if (r == StepResult::kNumericalFailure) return SolveStatus::kNumericalFailure;
  }
  return SolveStatus::kIterationLimit;
}

}  // namespace postcard::lp
