// Throughput and latency of the online controller runtime (src/runtime).
//
// Three benchmark families:
//
//   * IngressAdmission/threads:N — how many requests per second can the
//     thread-safe ingress admit with 1..16 concurrent producers hammering
//     submit()? Pure admission-control throughput: no LP solves.
//   * RuntimeReplay — end-to-end slot engine with a real Postcard backend
//     replaying a seeded workload; every solve runs on the driver thread.
//     Reports the mean and p99 slot latency (replay_w0_*: the key names
//     predate the removal of the runtime's worker pool and are kept so the
//     trajectory gate keeps comparing them).
//   * RuntimeWarmStart/warm:{0,1} — the same replay with the cross-slot
//     basis cache off vs on.
//
// Build & run:  cmake --build build && ./build/bench/bench_runtime_throughput
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "runtime/runtime.h"
#include "sim/workload.h"

namespace postcard::bench {
namespace {

sim::WorkloadParams runtime_params(std::uint64_t seed) {
  sim::WorkloadParams p;
  p.num_datacenters = 6;
  p.link_capacity = 400.0;
  // Batches large enough that the per-slot LP work dominates the slot
  // budget, so the solves (not queue bookkeeping) are what's measured.
  p.files_per_slot_min = 8;
  p.files_per_slot_max = 20;
  p.size_min = 10.0;
  p.size_max = 100.0;
  p.deadline_min = 1;
  p.deadline_max = 3;
  p.num_slots = 10;
  p.seed = seed;
  return p;
}

net::FileRequest make_file(int id, int num_dcs) {
  net::FileRequest f;
  f.id = id;
  f.source = id % num_dcs;
  f.destination = (id + 1 + id / num_dcs) % num_dcs;
  if (f.destination == f.source) f.destination = (f.source + 1) % num_dcs;
  f.size = 10.0 + (id % 90);
  f.max_transfer_slots = 1 + id % 3;
  f.release_slot = id % 16;
  return f;
}

/// N producer threads race submissions into a bare ingress; measures the
/// admission-control path (validation + capacity check + queue push) alone.
void IngressAdmission(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kPerThread = 2000;
  constexpr int kDcs = 8;
  const net::Topology topology =
      net::Topology::complete(kDcs, 100.0, [](int, int) { return 2.0; });

  for (auto _ : state) {
    runtime::EventQueue queue;
    runtime::RequestIngress ingress(topology, queue);
    std::vector<std::thread> producers;
    producers.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      producers.emplace_back([&ingress, t] {
        for (int i = 0; i < kPerThread; ++i) {
          ingress.submit(make_file(t * kPerThread + i, kDcs));
        }
      });
    }
    for (auto& p : producers) p.join();
    benchmark::DoNotOptimize(ingress.admitted());
  }
  state.SetItemsProcessed(state.iterations() * threads * kPerThread);
}

/// Full engine: replay a seeded workload through a Postcard backend. Wall
/// time is dominated by the per-slot LP solves.
void RuntimeReplay(benchmark::State& state) {
  const sim::UniformWorkload workload(runtime_params(17));
  long requests = 0;
  double p99_slot = 0.0;
  double mean_slot = 0.0;

  for (auto _ : state) {
    runtime::ControllerRuntime engine{net::Topology(workload.topology()),
                                      runtime::RuntimeOptions{}};
    engine.add_postcard_backend();
    const runtime::RuntimeStats stats = engine.replay(workload);
    requests += stats.submitted;
    p99_slot = stats.slot_latency.quantile(0.99);
    mean_slot = stats.slot_latency.mean_seconds();
  }
  state.SetItemsProcessed(requests);
  state.counters["p99_slot_ms"] = 1e3 * p99_slot;
  record_json_metric("replay_w0_p99_slot_ms", 1e3 * p99_slot);
  record_json_metric("replay_w0_mean_slot_ms", 1e3 * mean_slot);
}

/// RuntimeWarmStart/warm:{0,1} — the same deterministic replay with the
/// cross-slot basis cache off vs on. The deterministic-mode contract makes
/// both runs produce bit-identical cost series (asserted in the runtime
/// warm-start tests), so the delta in mean solve latency is attributable to
/// the warm starts alone: each accepted basis skips the first master's
/// phase 1. Counters expose the accept rate so a regression in remap
/// coverage (warm_accepts collapsing toward zero) shows up here even before
/// the latency delta does.
void RuntimeWarmStart(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const sim::UniformWorkload workload(runtime_params(17));
  double mean_solve_ms = 0.0;
  double accepts = 0.0;
  double colds = 0.0;

  for (auto _ : state) {
    runtime::ControllerRuntime engine{net::Topology(workload.topology()),
                                      runtime::RuntimeOptions{}};
    core::PostcardOptions popts;
    popts.warm_start = warm;
    engine.add_postcard_backend(popts);
    const runtime::RuntimeStats stats = engine.replay(workload);
    mean_solve_ms = 1e3 * stats.solve_latency.mean_seconds();
    accepts = static_cast<double>(stats.backends[0].warm_accepts);
    colds = static_cast<double>(stats.backends[0].cold_starts);
  }
  state.counters["mean_solve_ms"] = mean_solve_ms;
  state.counters["warm_accepts"] = accepts;
  state.counters["cold_starts"] = colds;
  const std::string key = warm ? "warm" : "cold";
  record_json_metric(key + std::string("_mean_solve_ms"), mean_solve_ms);
  if (warm) {
    record_json_metric("warm_accept_rate",
                       (accepts + colds) > 0 ? accepts / (accepts + colds)
                                             : 0.0);
  }
}

// UseRealTime: rate counters must reflect wall clock, including the
// producer threads of IngressAdmission.
BENCHMARK(IngressAdmission)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->UseRealTime();
BENCHMARK(RuntimeReplay)->UseRealTime();
BENCHMARK(RuntimeWarmStart)
    ->Arg(0)->Arg(1)
    ->ArgName("warm")
    ->UseRealTime();

}  // namespace
}  // namespace postcard::bench

POSTCARD_BENCHMARK_MAIN_WITH_JSON("runtime_throughput");
