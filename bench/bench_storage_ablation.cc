// Storage ablation: how much of Postcard's advantage comes from holdovers at
// *intermediate* datacenters? "postcard (no storage)" keeps source pacing
// and destination accumulation but forbids intermediate holdovers; the gap
// to full Postcard isolates the value of the paper's store-and-forward idea
// in the tight-capacity regime of Figs. 6-7.
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace {

using namespace postcard;

bench::FigureSeries run_no_storage_series(double capacity, int max_deadline) {
  std::vector<double> costs, rejected;
  bench::FigureSeries series;
  for (int run = 0; run < bench::figure_runs(); ++run) {
    const sim::UniformWorkload workload(
        bench::figure_params(capacity, max_deadline, 1000 + 17 * run));
    core::PostcardOptions opts;
    opts.allow_storage = false;
    core::PostcardController policy{net::Topology(workload.topology()), opts};
    const sim::RunResult r = sim::run_simulation(policy, workload);
    costs.push_back(r.final_cost_per_interval);
    rejected.push_back(r.total_volume > 0.0 ? r.rejected_volume / r.total_volume
                                            : 0.0);
    series.lp_iterations += r.lp_iterations;
  }
  series.cost = sim::summarize(costs);
  series.rejected_share = sim::summarize(rejected);
  return series;
}

void BM_StorageAblation_Full(benchmark::State& state) {
  bench::FigureSeries s;
  for (auto _ : state) {
    s = bench::run_figure_series(bench::Policy::kPostcard, 30.0, 8);
  }
  bench::report_series(state, s);
}
BENCHMARK(BM_StorageAblation_Full)->Unit(benchmark::kSecond)->Iterations(1);

void BM_StorageAblation_NoIntermediateStorage(benchmark::State& state) {
  bench::FigureSeries s;
  for (auto _ : state) {
    s = run_no_storage_series(30.0, 8);
  }
  bench::report_series(state, s);
}
BENCHMARK(BM_StorageAblation_NoIntermediateStorage)
    ->Unit(benchmark::kSecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
