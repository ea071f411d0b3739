// Scale sweep: datacenter count x arrivals per slot (100+ DCs at 1k
// arrivals/slot), across every topology generator of src/net/generators.h
// — complete graph, Fat-Trees, leaf-spine (l2_switch), and random_sparse.
//
// Each configuration replays a seeded workload through the full runtime —
// reachability-pruned pricing, the fail-fast plan auditor armed — under a
// fixed per-slot pivot budget, the production watchdog posture. Reported
// per config:
//
//   scale_<cfg>_slot_p50_ms / _slot_p99_ms   whole-slot latency
//   scale_<cfg>_degraded_slots               slots the ladder fired in
//   scale_<cfg>_rejected_share               admission pressure
//
// plus one sweep-wide marker, scale_ladder_first_engaged_dcs: the smallest
// datacenter count whose run engaged the degradation ladder (0 = never).
// The trajectory gate (scripts/summarize_benches.py) latches the latency
// keys by suffix and degraded_slots by name, so a scaling regression or the
// ladder engaging earlier in the sweep fails the build loudly.
//
// A completed run is itself an acceptance check: the auditor is in
// kFailFast mode, so an invalid committed plan at scale would throw
// instead of finishing.
//
// Build & run:  cmake --build build && ./build/bench/bench_scale
#include <benchmark/benchmark.h>

#include <iterator>
#include <memory>
#include <string>

#include "bench_json.h"
#include "net/generators.h"
#include "runtime/runtime.h"
#include "sim/workload.h"

namespace postcard::bench {
namespace {

// Deterministic stand-in for the paper's U[1,10] per-link unit costs.
double link_cost(int a, int b) {
  return 1.0 + ((a * 131 + b * 17) % 90) / 10.0;
}

enum class Topo { kComplete, kFatTree, kLeafSpine, kRandomSparse };

struct ScaleConfig {
  const char* name;  // metric key stem
  Topo topo;
  int param_a;       // fat_tree k / leaf count / node count
  int param_b;       // spine count / average out-degree
  std::uint64_t seed;
  int arrivals;      // files per slot
  int deadline_min;  // >= topology diameter, else most files are
  int deadline_max;  //   structurally unroutable
  int num_slots;
};

// DC count rises 20 -> 45 -> 48 -> 80 -> 100 -> 125 while arrivals rise
// 50 -> 1000, across every generator family: the paper's complete overlay,
// Fat-Trees, a leaf-spine fabric (diameter 2), and a seeded sparse digraph
// (ring + chords; the longest deadlines in the sweep). Seeds for the
// original four configs are unchanged so their metrics stay comparable
// across commits.
constexpr ScaleConfig kConfigs[] = {
    {"complete20_a50", Topo::kComplete, 20, 0, 100, 50, 1, 3, 4},
    {"fat6_a200", Topo::kFatTree, 6, 0, 106, 200, 4, 6, 3},
    {"leafspine48_a400", Topo::kLeafSpine, 32, 16, 148, 400, 2, 4, 3},
    {"fat8_a500", Topo::kFatTree, 8, 0, 108, 500, 4, 6, 3},
    {"sparse100_a600", Topo::kRandomSparse, 100, 5, 200, 600, 5, 8, 3},
    {"fat10_a1000", Topo::kFatTree, 10, 0, 110, 1000, 4, 6, 3},
};
constexpr int kNumConfigs = static_cast<int>(std::size(kConfigs));

// Pivot budget per slot: generous for the small shapes, a hard wall the
// 100+ DC masters run into — which is the point: the bench reports where
// in the sweep the degradation ladder starts carrying the load.
constexpr long kPivotBudget = 20000;

std::unique_ptr<sim::WorkloadGenerator> make_workload(const ScaleConfig& c) {
  sim::WorkloadParams p;
  p.num_datacenters = c.param_a;
  p.link_capacity = 100.0;
  p.files_per_slot_min = c.arrivals;
  p.files_per_slot_max = c.arrivals;
  p.size_min = 10.0;
  p.size_max = 50.0;
  p.deadline_min = c.deadline_min;
  p.deadline_max = c.deadline_max;
  p.num_slots = c.num_slots;
  p.seed = c.seed;
  switch (c.topo) {
    case Topo::kComplete:
      return std::make_unique<sim::UniformWorkload>(p);
    case Topo::kFatTree:
      return std::make_unique<sim::TopologyWorkload>(
          net::fat_tree(c.param_a, p.link_capacity, link_cost), p);
    case Topo::kLeafSpine:
      return std::make_unique<sim::TopologyWorkload>(
          net::l2_switch(c.param_a, c.param_b, p.link_capacity, link_cost),
          p);
    case Topo::kRandomSparse:
      return std::make_unique<sim::TopologyWorkload>(
          net::random_sparse(c.param_a, c.param_b, c.seed, p.link_capacity,
                             link_cost),
          p);
  }
  return nullptr;
}

// Smallest DC count whose run degraded, latched across the sweep (the
// configs run in registration order within one process).
int g_first_ladder_dcs = 0;

void BM_Scale(benchmark::State& state) {
  const ScaleConfig& config = kConfigs[state.range(0)];
  const std::unique_ptr<sim::WorkloadGenerator> workload =
      make_workload(config);
  const int num_dcs = workload->topology().num_datacenters();

  runtime::RuntimeStats stats;
  for (auto _ : state) {
    runtime::RuntimeOptions options;
    options.slot_pivot_budget = kPivotBudget;
    runtime::ControllerRuntime engine{net::Topology(workload->topology()),
                                      options};
    engine.add_postcard_backend();
    stats = engine.replay(*workload);
    benchmark::DoNotOptimize(stats.slots_processed);
  }

  const runtime::BackendStats& b = stats.backends[0];
  const double p50_ms = 1e3 * stats.slot_latency.quantile(0.5);
  const double p99_ms = 1e3 * stats.slot_latency.quantile(0.99);
  const long total = b.accepted_files + b.rejected_files;
  const double rejected_share =
      total > 0 ? static_cast<double>(b.rejected_files) / total : 0.0;
  if (b.degraded_slots > 0 && g_first_ladder_dcs == 0) {
    g_first_ladder_dcs = num_dcs;
  }

  state.counters["dcs"] = num_dcs;
  state.counters["arrivals"] = config.arrivals;
  state.counters["slot_p99_ms"] = p99_ms;
  state.counters["degraded_slots"] = static_cast<double>(b.degraded_slots);
  state.counters["rejected_share"] = rejected_share;
  const std::string key = std::string("scale_") + config.name;
  record_json_metric(key + "_slot_p50_ms", p50_ms);
  record_json_metric(key + "_slot_p99_ms", p99_ms);
  record_json_metric(key + "_degraded_slots",
                     static_cast<double>(b.degraded_slots));
  record_json_metric(key + "_rejected_share", rejected_share);
  if (state.range(0) == kNumConfigs - 1) {
    record_json_metric("scale_ladder_first_engaged_dcs",
                       static_cast<double>(g_first_ladder_dcs));
  }
}

BENCHMARK(BM_Scale)
    ->DenseRange(0, kNumConfigs - 1)
    ->ArgName("config")
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace postcard::bench

POSTCARD_BENCHMARK_MAIN_WITH_JSON("scale");
