// Solve statuses and the solution record of the LP solver.
#pragma once

#include <limits>
#include <string>

#include "linalg/dense.h"

namespace postcard::lp {

/// Positive infinity used for absent bounds.
inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalFailure,
  // A SolveBudget (lp/budget.h) ran out mid-solve: the solution holds the
  // best iterate reached so far, not a verified optimum. Distinct from
  // kIterationLimit so callers can tell a cooperative cancellation (walk
  // the degradation ladder) from a solver-local safety limit.
  kDeadlineExceeded,
};

/// Human-readable status name (for logs and test diagnostics).
inline const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration_limit";
    case SolveStatus::kNumericalFailure: return "numerical_failure";
    case SolveStatus::kDeadlineExceeded: return "deadline_exceeded";
  }
  return "unknown";
}

struct Solution {
  SolveStatus status = SolveStatus::kNumericalFailure;
  double objective = 0.0;
  linalg::Vector x;      // primal values, one per model variable
  linalg::Vector duals;  // one per constraint; lp::solve leaves it empty
  long iterations = 0;

  // Simplex diagnostics.
  long phase1_iterations = 0;
  long degenerate_pivots = 0;  // pivots with step length ~0
  long bound_flips = 0;
  // True when the solve ran no phase 1: the singleton crash left no
  // artificial in the starting basis, or the solve was an in-place resume
  // (RevisedSimplex::resolve). False when phase 1 ran.
  bool warm_started = false;

  bool optimal() const { return status == SolveStatus::kOptimal; }
};

}  // namespace postcard::lp
