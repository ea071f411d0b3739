// Solver ablation: the same Postcard slot problem solved two ways — the
// direct arc-flow LP via the revised simplex, and path-based column
// generation (the controller's default). DESIGN.md calls out the CG
// reformulation as the load-bearing design choice; this bench quantifies
// it.
#include <benchmark/benchmark.h>

#include "core/column_generation.h"
#include "core/formulation.h"
#include "lp/solver.h"
#include "sim/workload.h"

namespace {

using namespace postcard;

struct Instance {
  net::Topology topology;
  charging::ChargeState charge;
  std::vector<net::FileRequest> files;
};

Instance make_instance(int dcs, int files) {
  sim::WorkloadParams p;
  p.num_datacenters = dcs;
  p.link_capacity = 30.0;
  p.files_per_slot_min = files;
  p.files_per_slot_max = files;
  p.deadline_min = 1;
  p.deadline_max = 4;
  p.size_min = 5.0;
  p.size_max = 25.0;  // sizes that keep every file schedulable at c = 30
  p.num_slots = 1;
  p.seed = 11;
  sim::UniformWorkload w(p);
  return {net::Topology(w.topology()),
          charging::ChargeState(w.topology().num_links()), w.batch(0)};
}

void BM_DirectSimplex(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(1)));
  double obj = 0.0;
  long iters = 0;
  for (auto _ : state) {
    core::TimeExpandedFormulation f(inst.topology, inst.charge, 0, inst.files,
                                    {});
    const auto sol = lp::solve(f.model());
    obj = sol.objective;
    iters = sol.iterations;
    benchmark::ClobberMemory();
  }
  state.counters["objective"] = obj;
  state.counters["lp_iterations"] = static_cast<double>(iters);
}
BENCHMARK(BM_DirectSimplex)
    ->Args({6, 4})
    ->Args({8, 6})
    ->Args({10, 8})
    ->Unit(benchmark::kMillisecond);

void BM_ColumnGeneration(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<int>(state.range(0)),
                                      static_cast<int>(state.range(1)));
  double obj = 0.0;
  int cols = 0;
  for (auto _ : state) {
    const auto r =
        core::solve_postcard_by_paths(inst.topology, inst.charge, 0, inst.files);
    obj = r.objective;
    cols = r.path_columns;
    benchmark::ClobberMemory();
  }
  state.counters["objective"] = obj;
  state.counters["path_columns"] = cols;
}
BENCHMARK(BM_ColumnGeneration)
    ->Args({6, 4})
    ->Args({8, 6})
    ->Args({10, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
