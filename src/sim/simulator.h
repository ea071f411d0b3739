// Time-slotted simulation driver.
//
// Replays a workload against a scheduling policy, slot by slot, recording
// the cost-per-interval trajectory and solver statistics. The same workload
// object can be replayed against several policies (generation is
// random-access deterministic), which is how the paper's Postcard-vs-flow
// comparisons are produced.
#pragma once

#include <vector>

#include "sim/policy.h"
#include "sim/workload.h"

namespace postcard::sim {

struct RunResult {
  std::vector<double> cost_series;  // sum a_ij X_ij(t) after each slot
  double final_cost_per_interval = 0.0;
  double mean_cost_per_interval = 0.0;  // time-average of the series
  double total_volume = 0.0;            // GB offered
  double rejected_volume = 0.0;         // GB the policy could not schedule
  int rejected_files = 0;               // rejected or deferred files
  long lp_iterations = 0;
  int lp_solves = 0;
  double wall_seconds = 0.0;
};

RunResult run_simulation(SchedulingPolicy& policy,
                         const WorkloadGenerator& workload);

}  // namespace postcard::sim
