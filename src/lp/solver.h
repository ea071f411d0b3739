// Unified entry point for solving LpModel instances.
//
// Presolves the model, solves the reduction with the revised simplex and
// postsolves the result. The simplex returns vertex solutions, which plan
// extraction prefers (sparser transfer schedules). The result carries
// primal values and the objective but no row duals (lp/presolve.h), so
// lp::certify reports it as uncertifiable (+infinity). Callers that need
// duals for every row (column generation's master) or the unpresolved
// vertex (a test's reference) call RevisedSimplex directly; lp::certify
// (lp/certificate.h) checks such a result for optimality.
#pragma once

#include "lp/model.h"
#include "lp/status.h"

namespace postcard::lp {

/// Solves the model. Never throws on numerical trouble; inspect
/// Solution::status.
Solution solve(const LpModel& model);

}  // namespace postcard::lp
