#include "sim/simulator.h"

#include "lp/stopwatch.h"

namespace postcard::sim {

RunResult run_simulation(SchedulingPolicy& policy,
                         const WorkloadGenerator& workload) {
  RunResult result;
  const lp::Stopwatch wall;
  for (int slot = 0; slot < workload.num_slots(); ++slot) {
    const std::vector<net::FileRequest> files = workload.batch(slot);
    for (const net::FileRequest& f : files) result.total_volume += f.size;
    const ScheduleOutcome outcome = policy.schedule(slot, files);
    // An offline replay has no next-slot carryover, so a file the
    // degradation ladder deferred is never scheduled: it counts as
    // rejected.
    result.rejected_volume += outcome.rejected_volume + outcome.deferred_volume;
    result.rejected_files += static_cast<int>(outcome.rejected_ids.size() +
                                              outcome.deferred_ids.size());
    result.lp_iterations += outcome.lp_iterations;
    result.lp_solves += outcome.lp_solves;
    result.cost_series.push_back(policy.cost_per_interval());
  }
  result.wall_seconds = wall.seconds();

  if (!result.cost_series.empty()) {
    result.final_cost_per_interval = result.cost_series.back();
    double sum = 0.0;
    for (double c : result.cost_series) sum += c;
    result.mean_cost_per_interval = sum / result.cost_series.size();
  }
  return result;
}

}  // namespace postcard::sim
