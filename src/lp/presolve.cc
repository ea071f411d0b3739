#include "lp/presolve.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace postcard::lp {

namespace {
constexpr double kFeasTol = 1e-9;
constexpr double kFixTol = 1e-12;
}  // namespace

Presolver::Result Presolver::reduce(const LpModel& model) {
  const int n = model.num_variables();
  const int m = model.num_constraints();
  const linalg::SparseMatrix a = model.build_matrix();   // columns
  const linalg::SparseMatrix at = a.transpose();         // rows

  std::vector<double> cl = model.col_lower();
  std::vector<double> cu = model.col_upper();
  std::vector<double> rl = model.row_lower();
  std::vector<double> ru = model.row_upper();

  std::vector<char> col_alive(static_cast<std::size_t>(n), 1);
  std::vector<char> row_alive(static_cast<std::size_t>(m), 1);
  fixed_value_.assign(static_cast<std::size_t>(n), 0.0);

  // Alive-entry counters maintained incrementally as the other side dies.
  std::vector<int> row_count(static_cast<std::size_t>(m), 0);
  std::vector<int> col_count(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < m; ++i) row_count[i] = at.col_end(i) - at.col_begin(i);
  for (int j = 0; j < n; ++j) col_count[j] = a.col_end(j) - a.col_begin(j);

  Result result;

  auto kill_column = [&](int j, double value) {
    col_alive[j] = 0;
    fixed_value_[j] = value;
    for (linalg::Index p = a.col_begin(j); p < a.col_end(j); ++p) {
      const int i = a.row_idx()[p];
      if (!row_alive[i]) continue;
      const double shift = a.values()[p] * value;
      if (std::isfinite(rl[i])) rl[i] -= shift;
      if (std::isfinite(ru[i])) ru[i] -= shift;
      --row_count[i];
    }
  };
  auto kill_row = [&](int i) {
    row_alive[i] = 0;
    for (linalg::Index p = at.col_begin(i); p < at.col_end(i); ++p) {
      const int j = at.row_idx()[p];
      if (col_alive[j]) --col_count[j];
    }
  };

  bool changed = true;
  for (int round = 0; round < 16 && changed; ++round) {
    changed = false;

    // Fixed variables.
    for (int j = 0; j < n; ++j) {
      if (!col_alive[j]) continue;
      if (std::isfinite(cl[j]) && std::isfinite(cu[j]) &&
          cu[j] - cl[j] <= kFixTol * (1.0 + std::abs(cl[j]))) {
        kill_column(j, 0.5 * (cl[j] + cu[j]));
        changed = true;
      }
    }

    // Empty and singleton rows.
    for (int i = 0; i < m; ++i) {
      if (!row_alive[i]) continue;
      if (row_count[i] == 0) {
        const double scale = 1.0 + std::max(std::isfinite(rl[i]) ? std::abs(rl[i]) : 0.0,
                                            std::isfinite(ru[i]) ? std::abs(ru[i]) : 0.0);
        if (rl[i] > kFeasTol * scale || ru[i] < -kFeasTol * scale) {
          result.decided = SolveStatus::kInfeasible;
          return result;
        }
        kill_row(i);
        changed = true;
      } else if (row_count[i] == 1) {
        // Locate the single alive entry.
        int j = -1;
        double coef = 0.0;
        for (linalg::Index p = at.col_begin(i); p < at.col_end(i); ++p) {
          if (col_alive[at.row_idx()[p]]) {
            j = at.row_idx()[p];
            coef = at.values()[p];
            break;
          }
        }
        assert(j >= 0);
        double lo, hi;
        if (coef > 0.0) {
          lo = std::isfinite(rl[i]) ? rl[i] / coef : -kInfinity;
          hi = std::isfinite(ru[i]) ? ru[i] / coef : kInfinity;
        } else {
          lo = std::isfinite(ru[i]) ? ru[i] / coef : -kInfinity;
          hi = std::isfinite(rl[i]) ? rl[i] / coef : kInfinity;
        }
        cl[j] = std::max(cl[j], lo);
        cu[j] = std::min(cu[j], hi);
        if (cl[j] > cu[j] + kFeasTol * (1.0 + std::abs(cl[j]))) {
          result.decided = SolveStatus::kInfeasible;
          return result;
        }
        // Repair tiny crossings introduced by the tolerance.
        if (cl[j] > cu[j]) cl[j] = cu[j];
        kill_row(i);
        changed = true;
      }
    }

    // Empty columns.
    for (int j = 0; j < n; ++j) {
      if (!col_alive[j] || col_count[j] != 0) continue;
      const double c = model.objective()[j];
      double value;
      if (c > kFeasTol) {
        if (!std::isfinite(cl[j])) {
          result.decided = SolveStatus::kUnbounded;
          return result;
        }
        value = cl[j];
      } else if (c < -kFeasTol) {
        if (!std::isfinite(cu[j])) {
          result.decided = SolveStatus::kUnbounded;
          return result;
        }
        value = cu[j];
      } else if (std::isfinite(cl[j]) && cl[j] <= 0.0 &&
                 (!std::isfinite(cu[j]) || cu[j] >= 0.0)) {
        value = 0.0;  // zero is inside the box
      } else if (std::isfinite(cl[j]) && cl[j] > 0.0) {
        value = cl[j];
      } else {
        value = std::isfinite(cu[j]) ? cu[j] : 0.0;
      }
      col_alive[j] = 0;
      fixed_value_[j] = value;
      changed = true;
    }
  }

  // Assemble the reduced model.
  col_map_.assign(static_cast<std::size_t>(n), -1);
  row_map_.assign(static_cast<std::size_t>(m), -1);
  for (int j = 0; j < n; ++j) {
    if (col_alive[j]) {
      col_map_[j] = result.reduced.add_variable(cl[j], cu[j], model.objective()[j]);
    }
  }
  for (int i = 0; i < m; ++i) {
    if (row_alive[i]) {
      row_map_[i] = result.reduced.add_constraint(rl[i], ru[i]);
    }
  }
  for (int j = 0; j < n; ++j) {
    if (!col_alive[j]) continue;
    for (linalg::Index p = a.col_begin(j); p < a.col_end(j); ++p) {
      const int i = a.row_idx()[p];
      if (row_alive[i]) {
        result.reduced.add_coefficient(row_map_[i], col_map_[j], a.values()[p]);
      }
    }
  }
  removed_rows_ = m - result.reduced.num_constraints();
  removed_cols_ = n - result.reduced.num_variables();
  return result;
}

Solution Presolver::postsolve(const LpModel& original,
                              const Solution& reduced) const {
  Solution full;
  full.status = reduced.status;
  full.iterations = reduced.iterations;
  const int n = original.num_variables();

  full.x.assign(static_cast<std::size_t>(n), 0.0);
  for (int j = 0; j < n; ++j) {
    full.x[j] = col_map_[j] >= 0 && col_map_[j] < static_cast<int>(reduced.x.size())
                    ? reduced.x[col_map_[j]]
                    : fixed_value_[j];
  }
  full.objective = original.objective_value(full.x);
  return full;
}

}  // namespace postcard::lp
