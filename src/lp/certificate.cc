#include "lp/certificate.h"

#include <cstddef>
#include <vector>

namespace postcard::lp {

Certificate certify(const LpModel& model, const Solution& solution) {
  const std::size_t n = static_cast<std::size_t>(model.num_variables());
  const std::size_t m = static_cast<std::size_t>(model.num_constraints());
  if (solution.x.size() != n || solution.duals.size() != m) return {};
  const linalg::Vector& y = solution.duals;

  std::vector<double> d = model.objective();
  for (const linalg::Triplet& t : model.entries()) {
    d[t.col] -= t.value * y[t.row];
  }

  Certificate cert;
  cert.dual_infeasibility = 0.0;
  double dual_objective = 0.0;
  // A multiplier pays for the bound its sign selects; an absent (infinite)
  // bound would send the dual objective to -infinity, so it counts as dual
  // infeasibility instead.
  const auto add_multiplier = [&](double multiplier, double lower,
                                  double upper) {
    if (multiplier == 0.0) return;
    const double bound = multiplier > 0.0 ? lower : upper;
    if (std::isfinite(bound)) {
      dual_objective += multiplier * bound;
    } else {
      cert.dual_infeasibility =
          std::max(cert.dual_infeasibility, std::abs(multiplier));
    }
  };
  for (std::size_t i = 0; i < m; ++i) {
    add_multiplier(y[i], model.row_lower()[i], model.row_upper()[i]);
  }
  for (std::size_t j = 0; j < n; ++j) {
    add_multiplier(d[j], model.col_lower()[j], model.col_upper()[j]);
  }

  const double primal_objective = model.objective_value(solution.x);
  cert.primal_violation = model.max_violation(solution.x);
  cert.relative_gap =
      (primal_objective - dual_objective) / (1.0 + std::abs(primal_objective));
  return cert;
}

}  // namespace postcard::lp
