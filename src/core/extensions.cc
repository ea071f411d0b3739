#include "core/extensions.h"

#include <map>

#include "lp/solver.h"

namespace postcard::core {

namespace {

ExtensionResult run_elastic(const net::Topology& topology,
                            const charging::ChargeState& charge, int slot,
                            const std::vector<net::FileRequest>& files,
                            bool pin_charge, double budget_per_interval) {
  ExtensionResult result;
  if (files.empty()) {
    result.ok = true;
    result.cost_per_interval = charge.cost_per_interval(topology);
    return result;
  }

  FormulationOptions opts;
  opts.elastic_demand = true;
  opts.pin_charge = pin_charge;
  TimeExpandedFormulation formulation(topology, charge, slot, files, opts);

  if (budget_per_interval >= 0.0) {
    const int row = formulation.model().add_constraint(-lp::kInfinity,
                                                       budget_per_interval);
    for (int l = 0; l < topology.num_links(); ++l) {
      formulation.model().add_coefficient(row, formulation.charge_var(l),
                                          topology.link(l).unit_cost);
    }
  }

  const lp::Solution solution = lp::solve(formulation.model());
  result.lp_iterations = solution.iterations;
  if (!solution.optimal()) return result;

  result.ok = true;
  result.delivered.resize(files.size());
  for (int k = 0; k < formulation.num_files(); ++k) {
    result.delivered[k] = formulation.delivered(solution, k);
    result.delivered_total += result.delivered[k];
  }
  result.plans = formulation.extract_plans(solution);
  // Cost implied by the plans themselves: the unpriced X variables may sit
  // anywhere above the true charge, so recompute max slot volumes directly.
  std::vector<double> implied(static_cast<std::size_t>(topology.num_links()));
  for (int l = 0; l < topology.num_links(); ++l) implied[l] = charge.charged(l);
  std::map<std::pair<int, int>, double> slot_volume;  // (link, slot) -> GB
  for (const FilePlan& plan : result.plans) {
    for (const Transfer& t : plan.transfers) {
      if (!t.storage()) slot_volume[{t.link, t.slot}] += t.volume;
    }
  }
  for (const auto& [key, volume] : slot_volume) {
    const auto& [link, s] = key;
    implied[link] = std::max(implied[link], charge.committed(link, s) + volume);
  }
  result.cost_per_interval = 0.0;
  for (int l = 0; l < topology.num_links(); ++l) {
    result.cost_per_interval += topology.link(l).unit_cost * implied[l];
  }
  return result;
}

}  // namespace

ExtensionResult maximize_bulk_transfer(const net::Topology& topology,
                                       const charging::ChargeState& charge,
                                       int slot,
                                       const std::vector<net::FileRequest>& files) {
  return run_elastic(topology, charge, slot, files, /*pin_charge=*/true,
                     /*budget_per_interval=*/-1.0);
}

ExtensionResult maximize_with_budget(const net::Topology& topology,
                                     const charging::ChargeState& charge,
                                     int slot,
                                     const std::vector<net::FileRequest>& files,
                                     double budget_per_interval) {
  return run_elastic(topology, charge, slot, files, /*pin_charge=*/false,
                     budget_per_interval);
}

}  // namespace postcard::core
