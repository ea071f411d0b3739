// Throughput and latency of the online controller runtime (src/runtime).
//
// Two benchmark families:
//
//   * IngressAdmission/threads:N — how many requests per second can the
//     thread-safe ingress admit with 1..16 concurrent producers hammering
//     submit()? Pure admission-control throughput: no LP solves.
//   * RuntimeReplay — end-to-end slot engine with a real Postcard backend
//     replaying a seeded workload; every solve runs on the driver thread.
//     Reports the mean and p99 slot latency (replay_w0_*: the key names
//     predate the removal of the runtime's worker pool and are kept so the
//     trajectory gate keeps comparing them).
//
// Build & run:  cmake --build build && ./build/bench/bench_runtime_throughput
#include <benchmark/benchmark.h>

#include <memory>
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

// UseRealTime: rate counters must reflect wall clock, including the
// producer threads of IngressAdmission.
BENCHMARK(IngressAdmission)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->UseRealTime();
BENCHMARK(RuntimeReplay)->UseRealTime();

}  // namespace
}  // namespace postcard::bench

POSTCARD_BENCHMARK_MAIN_WITH_JSON("runtime_throughput");
