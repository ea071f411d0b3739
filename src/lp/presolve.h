// Presolve: cheap, exact reductions applied before the LP algorithms.
//
// Implemented reductions (iterated to a fixpoint):
//   * fixed variables (lower == upper) are substituted into rows,
//   * empty rows are checked for feasibility and dropped,
//   * singleton rows are converted into variable bound tightenings,
//   * empty columns are fixed at their objective-optimal bound.
//
// Postsolve restores a full-length primal vector and the objective; it
// returns no duals. A removed singleton row whose implied bound is active
// has no dual the reduced solve can supply, so a remapped dual vector
// could not be certified. Every lp::solve caller consumes primal
// solutions and objective values only; column generation, which needs
// row duals, solves its master with RevisedSimplex directly.
#pragma once

#include <optional>
#include <vector>

#include "lp/model.h"
#include "lp/status.h"

namespace postcard::lp {

class Presolver {
 public:
  /// Outcome of a presolve pass. When `decided` is set, the original model
  /// was solved (or proved infeasible/unbounded) outright by the reductions
  /// and `reduced` must not be solved.
  struct Result {
    std::optional<SolveStatus> decided;
    LpModel reduced;
  };

  /// Reduces `model`. The presolver instance keeps the reduction stack needed
  /// by postsolve(), so it must outlive the solve of the reduced model.
  Result reduce(const LpModel& model);

  /// Maps a solution of the reduced model back onto the original model:
  /// primal values, objective, status and iterations, no duals.
  Solution postsolve(const LpModel& original, const Solution& reduced) const;

  int removed_rows() const { return removed_rows_; }
  int removed_cols() const { return removed_cols_; }

 private:
  // Original-index bookkeeping captured during reduce().
  std::vector<int> col_map_;        // original col -> reduced col or -1
  std::vector<int> row_map_;        // original row -> reduced row or -1
  std::vector<double> fixed_value_; // original col -> value if removed
  int removed_rows_ = 0;
  int removed_cols_ = 0;
};

}  // namespace postcard::lp
