// Cost of graceful degradation (DESIGN.md §9) on the Fig. 4 workload.
//
// DegradationCost/budget:B replays the workload with a per-slot pivot
// budget of B (0 = unlimited, the full-LP reference). As B shrinks the
// watchdog cuts column generation earlier and more slots land on the
// truncated-CG / greedy rungs; counters report where the ladder settled and
// what the degradation cost relative to the slots' entry charge
// (`cost_delta` = BackendStats::degraded_cost_delta). Budgets are pure
// pivot counts, so every reading is deterministic.
//
// Build & run:  cmake --build build && ./build/bench/bench_degradation
#include <benchmark/benchmark.h>

#include <string>

#include "bench_json.h"
#include "runtime/runtime.h"
#include "sim/workload.h"

namespace postcard::bench {
namespace {

// Fig. 4 shape (paper Sec. VII): ample capacity, deadlines U[1,3], unit
// costs U[1,10], sizes U[10,100] GB; more slots than the test suite so the
// per-rung distribution has room to spread.
sim::WorkloadParams fig4_params(std::uint64_t seed) {
  sim::WorkloadParams p;
  p.num_datacenters = 6;
  p.link_capacity = 100.0;
  p.cost_min = 1.0;
  p.cost_max = 10.0;
  p.files_per_slot_min = 1;
  p.files_per_slot_max = 4;
  p.size_min = 10.0;
  p.size_max = 100.0;
  p.deadline_min = 1;
  p.deadline_max = 3;
  p.num_slots = 20;
  p.seed = seed;
  return p;
}

void BM_DegradationCost(benchmark::State& state) {
  const long budget = state.range(0);
  const sim::UniformWorkload workload(fig4_params(42));
  runtime::RuntimeStats stats;

  for (auto _ : state) {
    runtime::RuntimeOptions options;
    options.slot_pivot_budget = budget;
    runtime::ControllerRuntime engine{net::Topology(workload.topology()),
                                      options};
    engine.add_postcard_backend();
    stats = engine.replay(workload);
    benchmark::DoNotOptimize(stats.slots_processed);
  }

  const runtime::BackendStats& b = stats.backends[0];
  state.counters["budget"] = static_cast<double>(budget);
  state.counters["cost_per_interval"] = b.cost_series.back();
  state.counters["cost_delta"] = b.degraded_cost_delta;
  state.counters["degraded_slots"] = static_cast<double>(b.degraded_slots);
  state.counters["rung_truncated"] = static_cast<double>(b.rung_truncated);
  state.counters["rung_greedy"] = static_cast<double>(b.rung_greedy);
  state.counters["carryover"] = static_cast<double>(b.carryover_files);
  state.counters["failed"] = static_cast<double>(b.failed_files);
  const std::string key = "budget" + std::to_string(budget);
  record_json_metric(key + "_degraded_slots",
                     static_cast<double>(b.degraded_slots));
  record_json_metric(key + "_cost_delta", b.degraded_cost_delta);
}

BENCHMARK(BM_DegradationCost)
    ->Arg(0)->Arg(10)->Arg(25)->Arg(50)->Arg(100)->Arg(400)
    ->ArgName("budget");

}  // namespace
}  // namespace postcard::bench

POSTCARD_BENCHMARK_MAIN_WITH_JSON("degradation");
