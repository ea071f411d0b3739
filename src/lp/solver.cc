#include "lp/solver.h"

#include "lp/presolve.h"
#include "lp/simplex.h"

namespace postcard::lp {

Solution solve(const LpModel& model) {
  Presolver presolver;
  Presolver::Result reduced = presolver.reduce(model);
  if (reduced.decided.has_value()) {
    Solution s;
    s.status = *reduced.decided;
    return s;
  }
  const Solution inner = RevisedSimplex().solve(reduced.reduced);
  if (inner.status == SolveStatus::kInfeasible ||
      inner.status == SolveStatus::kUnbounded ||
      inner.status == SolveStatus::kNumericalFailure) {
    Solution s;
    s.status = inner.status;
    s.iterations = inner.iterations;
    return s;
  }
  return presolver.postsolve(model, inner);
}

}  // namespace postcard::lp
