// Optimality certificate for an LP solution.
//
// For  min c^T x  s.t.  rl <= Ax <= ru,  l <= x <= u  with row duals y
// (Solution::duals), the reduced costs are d = c - A^T y. A positive
// multiplier (y_i or d_j) prices a lower bound and a negative one an upper
// bound, so the dual objective is
//   D = sum_i (y_i > 0 ? y_i rl_i : y_i ru_i) + sum_j (d_j > 0 ? d_j l_j : d_j u_j),
// which by weak duality bounds every feasible objective from below. When
// the primal violation, the dual infeasibility and the relative gap are
// all near zero, x is optimal: no second solver is needed to say so.
//
// The check recomputes d from the model, so it trusts nothing but x and y.
// Presolved results (lp::solve) carry no duals (lp/presolve.h), so they
// certify as +infinity and are checked by comparing objectives with a
// certified RevisedSimplex result instead.
#pragma once

#include <algorithm>
#include <cmath>

#include "lp/model.h"
#include "lp/status.h"

namespace postcard::lp {

struct Certificate {
  double primal_violation = kInfinity;    // LpModel::max_violation(x)
  double dual_infeasibility = kInfinity;  // largest |multiplier| on an absent bound
  double relative_gap = kInfinity;        // (c^T x - D) / (1 + |c^T x|)

  /// The largest of the three residuals (the gap by magnitude).
  double worst() const {
    return std::max({primal_violation, dual_infeasibility,
                     std::abs(relative_gap)});
  }
};

/// Certifies `solution` against `model`. A solution without one primal
/// value per column and one dual per row cannot be certified: every
/// residual is then +infinity.
Certificate certify(const LpModel& model, const Solution& solution);

}  // namespace postcard::lp
