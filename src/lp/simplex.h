// Bounded-variable two-phase revised simplex.
//
// The model  min c^T x,  rl <= Ax <= ru,  l <= x <= u  is solved in the
// computational form  [A | -I] [x; s] = 0,  l <= x <= u,  rl <= s <= ru:
// every row gets a logical variable equal to its activity. A singleton
// crash makes a column basic in each row the start violates and the column
// alone can repair; phase 1 appends one artificial (+/- unit column) per
// row still infeasible and minimizes their sum; phase 2 minimizes the true
// objective from the feasible basis.
//
// Techniques (the network LPs Postcard produces are massively degenerate,
// so the textbook Dantzig iteration stalls):
//   * full Devex pricing (Forrest-Goldfarb reference weights) over every
//     dual-infeasible column, kept as a bitset that each pivot refreshes
//     only where a reduced cost or a status changed; reduced costs are
//     maintained incrementally from the pivot row and recomputed at every
//     refactorization,
//   * two-pass Harris ratio test: pass one relaxes bounds by the feasibility
//     tolerance to find the step limit, pass two picks the largest pivot
//     among the candidates within it,
//   * deterministic cost perturbation per phase (removed before reporting;
//     optimality is re-verified against the true costs and iterations resume
//     if the perturbation changed the answer),
//   * sparse LU basis (linalg::LuFactorization: Gilbert-Peierls with
//     column-count ordering and partial pivoting) with product-form (PFI)
//     eta updates and periodic refactorization,
//   * hyper-sparse pivots: FTRAN and BTRAN return their nonzero patterns,
//     and the ratio test, the basic-value update, the pivot-row scatter and
//     the reduced-cost/Devex updates walk those patterns (and the columns
//     the pivot row touches) instead of every row and column. Patterns are
//     ascending, so tie-breaks, eta entries and pivot-row sums keep the
//     dense loops' order and the pivot sequence is unchanged bit for bit.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/lu.h"
#include "lp/budget.h"
#include "lp/model.h"
#include "lp/status.h"

namespace postcard::lp {

class RevisedSimplex {
 public:
  struct Options {
    double perturbation = 1e-7;  // relative cost perturbation (0 disables)
    long max_iterations = -1;  // -1: 2000 + 100 * (rows + cols)
    int refactor_interval = 100;
  };

  RevisedSimplex() : RevisedSimplex(Options{}) {}
  explicit RevisedSimplex(Options options) : options_(options) {}

  /// Solves the model from the crash basis (cold_start()). When the crash
  /// leaves no artificial, phase 1 is skipped entirely and
  /// Solution::warm_started is set.
  ///
  /// `budget`, when non-null and limited, is charged one unit per pivot;
  /// on exhaustion the solve stops with kDeadlineExceeded and the best
  /// basic point reached so far (objective and duals are still reported).
  Solution solve(const LpModel& model, SolveBudget* budget = nullptr);

  /// True when resolve() can continue in place from the last solve on this
  /// object: it ended kOptimal, `model` has the same rows and at least as
  /// many columns, every coefficient added since lands in an appended
  /// column, no existing column's objective coefficient changed, every
  /// appended column starts at value zero (so the incumbent basic point
  /// stays feasible), and no artificial variable is still basic. Bounds of
  /// existing rows and columns must be unchanged; that stays the caller's
  /// contract.
  bool can_resume(const LpModel& model) const;

  /// Hot restart for the column-generation inner loop: re-optimizes `model`
  /// from the incumbent basis, keeping the LU factorization and its
  /// product-form updates (the basis columns' coefficients are unchanged
  /// when columns are only appended), so no refactorization and no phase 1
  /// are paid. Falls back to a full cold solve() when can_resume() is false
  /// or the resumed run hits a numerical failure. The set-up costs what was
  /// appended: the matrix and its row view grow in place, the kept costs
  /// and bounds shift to open a gap for the new columns, and the first
  /// reduced costs are priced from the duals the last solve reported
  /// (same basis, LU and costs, so the same bits). Devex weights restart
  /// at 1. The short resumed tail prices the true costs in a single phase —
  /// no perturbation cycle, whose anti-degeneracy role the EXPAND minimum
  /// step covers.
  Solution resolve(const LpModel& model, SolveBudget* budget = nullptr);

 private:
  enum class VarStatus : unsigned char { kBasic, kAtLower, kAtUpper, kFree };
  enum class StepResult { kStep, kOptimal, kUnbounded, kNumericalFailure };

  /// Visits the nonzero (row, value) entries of variable j's column in the
  /// computational matrix [A | -I | artificials].
  template <class Fn>
  void for_column(int j, Fn&& fn) const {
    if (j < n_) {
      for (linalg::Index p = a_.col_begin(j); p < a_.col_end(j); ++p) {
        fn(static_cast<int>(a_.row_idx()[p]), a_.values()[p]);
      }
    } else if (j < n_ + m_) {
      fn(j - n_, -1.0);
    } else {
      fn(art_row_[j - n_ - m_], art_sign_[j - n_ - m_]);
    }
  }

  double column_dot(int j, const linalg::Vector& y) const {
    double s = 0.0;
    for_column(j, [&](int i, double v) { s += v * y[i]; });
    return s;
  }

  bool refactorize();
  /// Builds the starting basis: every structural nonbasic at its bound
  /// nearest zero, a satisfied row on its logical, a violated row on its
  /// lowest-index column singleton that absorbs the violation within its
  /// bounds (a singleton crash), else on an artificial.
  void cold_start();
  void recompute_basic_values();
  /// Recomputes the full reduced-cost vector d from the duals y in work_y_
  /// and rebuilds the dual-infeasibility bitset in the same pass. y is
  /// recomputed first (one BTRAN) unless `duals_current`: the caller vouches
  /// that work_y_ already holds B^{-T} c_B for the current basis, LU and
  /// costs.
  void recompute_reduced_costs(bool duals_current = false);
  /// Sets bit j of infeasible_ exactly when violation(j) > dual_tol_.
  void refresh_price(int j);
  /// Devex-scored entering variable, or -1 when dual-feasible.
  int price() const;
  StepResult iterate();
  SolveStatus run_phase(long* iterations, long iteration_limit,
                        bool duals_current = false);
  /// Runs one phase with perturbed costs, then re-verifies a claimed
  /// optimum/unbounded ray against the true costs (see solve()).
  SolveStatus run_perturbed_phase(unsigned seed, long* iterations,
                                  long iteration_limit);
  /// Assembles the Solution record from the final solver state (primal
  /// values, objective, duals) and records last_status_.
  Solution finish_solution(const LpModel& model, SolveStatus status,
                           long iterations, long phase1_iterations,
                           bool warm_started);
  /// Both set cost_ for a phase, then dual_tol_ (set_dual_tolerance()).
  void apply_perturbation(unsigned seed);
  void remove_perturbation();
  /// dual_tol_ = kOptTol * max(1, max_j |cost_[j]|): fixed for a phase,
  /// since cost_ changes only between phases.
  void set_dual_tolerance();
  int total_variables() const {
    return n_ + m_ + static_cast<int>(art_row_.size());
  }
  /// Signed attractiveness of nonbasic j: positive means entering improves.
  double violation(int j) const;

  Options options_;
  SolveBudget* budget_ = nullptr;  // per-solve cancellation token, may be null
  // Outcome of the last solve()/resolve(); resolve() requires kOptimal.
  SolveStatus last_status_ = SolveStatus::kNumericalFailure;

  // Problem data in computational form.
  linalg::SparseMatrix a_;             // structural columns
  // Row-wise (CSR) view of a_: row i's (column, value) entries live at
  // [row_begin_[i], row_end_[i]) of row_col_/row_val_, columns ascending,
  // with spare room up to row_room_[i]. solve() builds it; resolve() grows
  // it in place by the appended columns (append_rows()). The pivot-row pass
  // scatters the btran'd unit vector across the rows it touches, and the
  // reduced-cost recompute scatters y's nonzero rows, instead of gathering
  // a dot product for every column.
  std::vector<int> row_begin_, row_end_, row_room_, row_col_;
  std::vector<double> row_val_;
  // Model entry count already folded into a_; resolve() appends only the
  // triplets past this watermark instead of rebuilding the whole matrix.
  int matrix_entries_ = 0;
  int n_ = 0;                          // structural count
  int m_ = 0;                          // row count
  std::vector<int> art_row_;           // artificial -> row
  std::vector<double> art_sign_;       // artificial column value (+/-1)
  // row -> its artificial (or -1); built by cold_start(), the only place
  // artificials are created, and read only while art_row_ is non-empty.
  std::vector<int> row_art_;
  std::vector<double> cost_;           // current-phase (perturbed) costs
  std::vector<double> base_cost_;      // current-phase true costs
  std::vector<double> lower_, upper_;  // bounds, all variables

  // Basis state.
  std::vector<int> basis_;        // row position -> variable
  std::vector<VarStatus> vstat_;  // variable -> status
  std::vector<int> basic_pos_;    // variable -> row position or -1
  linalg::Vector x_;              // values of all variables
  linalg::LuFactorization lu_;

  // Pricing state.
  std::vector<double> d_;       // reduced costs, maintained incrementally
  std::vector<double> devex_;   // Devex reference weights
  double dual_tol_ = 1e-7;
  // Bit j set exactly when violation(j) > dual_tol_: the candidates price()
  // scans, in ascending index. Rebuilt by recompute_reduced_costs();
  // iterate() refreshes the bits of the variables whose reduced cost or
  // status it changed.
  std::vector<std::uint64_t> infeasible_;
  // Set during phase 1: run_phase() returns optimal as soon as every
  // artificial is exactly zero (feasibility is phase 1's only goal).
  bool phase1_stop_when_feasible_ = false;

  /// Rebuilds the CSR row view from a_, leaving spare room after each row.
  void rebuild_rows();
  /// Adds a_'s columns [first_col, n_) to the row view; a full row moves to
  /// the end of the arena with double its room.
  void append_rows(int first_col);

  // Scratch. work_w_, work_rho_ and work_alpha_ are all zero between
  // pivots: each is cleared through its pattern.
  linalg::Vector work_y_, work_w_, work_rho_, work_rhs_;
  std::vector<linalg::Index> w_pattern_, rho_pattern_;  // ascending
  linalg::Vector work_alpha_;  // pivot-row values, all variables
  std::vector<int> touched_;   // variables the pivot row reached
  std::vector<char> in_row_;   // structural j already in touched_
  long stat_degenerate_ = 0;
  long stat_flips_ = 0;
};

}  // namespace postcard::lp
