// ctlbench: the controller benchmark's driver binary.
//
//   ctlbench run --workload paper|scale|service --seed N --seconds S
//                --trace 0|1 [--trace-out FILE]
//                [--inputs DIR]                          (service only)
//   ctlbench inputs --seed N --inputs DIR
//
// `run` prints one line per metric (name, value, unit, sample count) and,
// last, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates untraced and traced episodes and reports the per-layer
// metrics. A failed output check prints every failure on stderr, reports
// correct=false and exits 1. `inputs` is the separate process that builds
// service's snapshots and their in-process reference outcomes in DIR; run.py
// calls it before `run` and removes DIR afterwards.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>

#include "bench.h"
#include "net/generators.h"

namespace ctlbench {
namespace {

/// The complete overlay with one fixed U[cost_min, cost_max] draw of unit
/// costs, carrying the traffic `p.seed` draws: seeds vary the files, never
/// the network, so runs with different seeds time the same LPs' shape.
std::unique_ptr<postcard::sim::WorkloadGenerator> on_fixed_costs(
    const postcard::sim::WorkloadParams& p) {
  postcard::sim::WorkloadParams network = p;
  network.seed = kTopologySeed;
  const postcard::sim::UniformWorkload overlay(network);
  return std::make_unique<postcard::sim::TopologyWorkload>(
      postcard::net::Topology(overlay.topology()), p);
}

}  // namespace

std::vector<Metric> Timings::end_to_end(const Samples& setup, double cost,
                                        double delivered_share,
                                        const HostProbe& probe) const {
  std::map<int, std::vector<const Episode*>> by_draw;
  for (const Episode& e : episodes_) by_draw[e.draw].push_back(&e);
  Samples decisions;  // every slot decision of every draw
  double loop_seconds = 0.0;
  long files = 0;
  for (const auto& [draw, repeats] : by_draw) {
    for (std::size_t k = 0; k < repeats.front()->slots.size(); ++k) {
      Samples decision, loop;
      for (const Episode* r : repeats) {
        decision.add(r->slots[k].decision_s);
        loop.add(r->slots[k].loop_s);
      }
      decisions.add(decision.median());
      loop_seconds += loop.median();
      files += repeats.front()->slots[k].files;
    }
  }
  // The tail's level is the highest percentile with at least ten slots of
  // one draw beyond it; it is read off every draw's slots together, so many
  // short draws (paper) estimate it from all their samples.
  const std::size_t draws = by_draw.size();
  const double per_draw =
      draws == 0 ? 0.0 : static_cast<double>(decisions.count() / draws);
  const double level = per_draw > 10.0 ? (per_draw - 10.0) / per_draw : 1.0;
  char per_slot[48];
  std::snprintf(per_slot, sizeof per_slot, "slot = median of %zu repeats",
                draws == 0 ? 0 : episodes_.size() / draws);
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note, "p%.2f over %zu draws, %s",
                100.0 * level, draws, per_slot);
  // Wall time at the defining host's speed: divided by how much slower
  // than it the host ran during this run.
  const double slowdown = probe.slowdown();
  char scaled[64];
  std::snprintf(scaled, sizeof scaled, "wall / %.4f (host probe, n=%zu)",
                slowdown, probe.samples().count());
  const double ms = 1e3 / slowdown, us = 1e6 / slowdown;
  return {
      {"setup_s", setup.median() / slowdown, "s", setup.count(), scaled},
      {"slot_p50_ms", ms * decisions.median(), "ms", decisions.count(),
       per_slot},
      {"slot_tail_ms", ms * decisions.quantile(level), "ms",
       decisions.count(), tail_note},
      {"files_per_s", slowdown * files / loop_seconds, "1/s",
       static_cast<std::size_t>(files), per_slot},
      {"cost_per_interval", cost, "usd", 1},
      {"delivered_share", delivered_share, "share", 1},
      {"peak_rss_mb", peak_rss_mb(), "MiB", 1},
      {"submit_p50_us", us * submit_.median(), "us", submit_.count()},
      {"query_p50_us", us * query_.median(), "us", query_.count()},
  };
}

std::unique_ptr<postcard::sim::WorkloadGenerator> make_workload(
    const std::string& workload, std::uint64_t seed) {
  postcard::sim::WorkloadParams p;
  p.seed = seed;
  if (workload == "paper") {
    p.num_datacenters = 20;
    p.link_capacity = 100.0;
    p.cost_min = 1.0;
    p.cost_max = 10.0;
    p.files_per_slot_min = 1;
    p.files_per_slot_max = 20;
    p.size_min = 10.0;
    p.size_max = 100.0;
    p.deadline_min = 1;
    p.deadline_max = 3;
    p.num_slots = kPaperSlots;
    return on_fixed_costs(p);
  }
  if (workload == "scale") {
    // bench_scale's deterministic stand-in for U[1,10] unit costs.
    const auto link_cost = [](int a, int b) {
      return 1.0 + ((a * 131 + b * 17) % 90) / 10.0;
    };
    p.link_capacity = 100.0;
    p.files_per_slot_min = 200;
    p.files_per_slot_max = 200;
    p.size_min = 10.0;
    p.size_max = 50.0;
    p.deadline_min = 4;
    p.deadline_max = 6;
    p.num_slots = kScaleSlots;
    return std::make_unique<postcard::sim::TopologyWorkload>(
        postcard::net::fat_tree(6, p.link_capacity, link_cost), p);
  }
  if (workload == "service") {
    p.num_datacenters = 6;
    p.link_capacity = 400.0;
    p.files_per_slot_min = 8;
    p.files_per_slot_max = 20;
    p.size_min = 10.0;
    p.size_max = 100.0;
    p.deadline_min = 1;
    p.deadline_max = 3;
    p.num_slots = kServiceHistory + kServiceSlots;
    return on_fixed_costs(p);
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

RunShape run_shape(const std::string& workload, double seconds, bool trace) {
  // Nominal wall time of one episode on a 4-vCPU x86-64 VM at the commit
  // that defined the benchmark. Fixed: a faster controller runs the same
  // episodes (and sample counts) in less time.
  const double nominal = workload == "paper"   ? 2.3
                         : workload == "scale" ? 9.0
                                               : 0.3;
  const int episodes = static_cast<int>(std::lround(seconds / nominal));
  const int at_least = trace ? 2 : 1;
  RunShape shape;
  if (workload == "paper") {
    shape.draws = std::max(at_least, episodes);
  } else if (workload == "service") {
    shape.draws = kServiceDraws;
    shape.repeats = std::max(at_least, episodes / kServiceDraws);
  } else {
    shape.repeats = std::max(at_least, episodes);
  }
  return shape;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add_layer_metrics(const LayerData& d, Report& report) {
  Samples self, pricing, master, audit, sweep, overhead;
  double wall = 0.0, self_sum = 0.0, pricing_sum = 0.0, master_sum = 0.0,
         audit_sum = 0.0, overhead_sum = 0.0;
  long pivots = 0, solves = 0, resumed = 0, warm = 0, cold = 0;
  std::set<int> runs;
  for (const SlotDelta& s : d.slots) {
    const double self_s = s.tick_s - s.pricing_s - s.master_s - s.audit_s;
    const double overhead_s = s.wall_s - s.tick_s;
    self.add(self_s);
    pricing.add(s.pricing_s);
    master.add(s.master_s);
    audit.add(s.audit_s);
    sweep.add(s.sweep_s);
    overhead.add(overhead_s);
    wall += s.wall_s;
    self_sum += self_s;
    pricing_sum += s.pricing_s;
    master_sum += s.master_s;
    audit_sum += s.audit_s;
    overhead_sum += overhead_s;
    pivots += s.pivots;
    solves += s.lp_solves;
    resumed += s.resumed;
    warm += s.warm_accepts;
    cold += s.cold_starts;
    runs.insert(s.run);
  }
  const auto share = [&](double x) { return wall > 0.0 ? x / wall : 0.0; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double episodes =
      static_cast<double>(std::max<std::size_t>(1, runs.size()));
  const double ms = 1e3, us = 1e6;
  const std::size_t n = d.slots.size();
  const double per_episode = d.per_episode;
  report.per_layer = {
      {"runtime.self_ms", ms * self.median(), "ms", n},
      {"runtime.self_share", share(self_sum), "share", n},
      {"core.pricing_ms", ms * pricing.median(), "ms", n},
      {"core.pricing_share", share(pricing_sum), "share", n},
      {"core.degraded_slots", d.degraded_slots / per_episode, "count", 1},
      {"core.greedy_files", d.greedy_files / per_episode, "count", 1},
      {"core.carryover_files", d.carryover_files / per_episode, "count", 1},
      {"core.rejected_files", d.rejected_files / per_episode, "count", 1},
      {"core.failed_files", d.failed_files / per_episode, "count", 1},
      {"lp.master_ms", ms * master.median(), "ms", n},
      {"lp.master_share", share(master_sum), "share", n},
      {"lp.pivots", pivots / episodes, "count", runs.size()},
      {"lp.us_per_pivot", us * ratio(master_sum, pivots), "us",
       static_cast<std::size_t>(pivots)},
      {"lp.resumed_share", ratio(resumed, solves), "ratio",
       static_cast<std::size_t>(solves)},
      {"lp.warm_accept_share", ratio(warm, warm + cold), "share",
       static_cast<std::size_t>(warm + cold)},
      {"audit.ms", ms * audit.median(), "ms", n},
      {"audit.share", share(audit_sum), "share", n},
      {"audit.charge_sweep_ms", ms * sweep.median(), "ms", n},
      {"server.advance_overhead_ms", ms * overhead.median(), "ms", n},
      {"server.advance_overhead_share", share(overhead_sum), "share", n},
      {"server.restore_ms", ms * d.restore.median(), "ms", d.restore.count()},
      {"server.snapshot_bytes", d.snapshot_bytes, "bytes", 1},
      {"server.submit_tail_us", us * d.submit.tail(), "us", d.submit.count()},
      {"server.query_tail_us", us * d.query.tail(), "us", d.query.count()},
      {"server.backpressure_replies", static_cast<double>(d.backpressure),
       "count", 1},
      {"server.protocol_errors", static_cast<double>(d.protocol_errors),
       "count", 1},
      {"trace.named_share", share(pricing_sum + master_sum + audit_sum),
       "share", n},
      {"host.probe_us", us * d.probe_s, "us", 1},
      {"trace.overhead_ms",
       ms * (d.traced_slot.median() - d.untraced_slot.median()), "ms",
       d.traced_slot.count() + d.untraced_slot.count()},
  };
}

void write_trace(const std::string& path, const SpanRecorder& spans,
                 const LayerData& data) {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  spans.write(out);
  for (const SlotDelta& s : data.slots) {
    std::fprintf(out,
                 "{\"type\":\"slot\",\"run\":%d,\"slot\":%d,\"wall_s\":%.9g,"
                 "\"tick_s\":%.9g,\"pricing_s\":%.9g,\"master_s\":%.9g,"
                 "\"audit_s\":%.9g,\"sweep_s\":%.9g,\"pivots\":%ld,"
                 "\"lp_solves\":%ld,\"resumed\":%ld,\"warm_accepts\":%ld,"
                 "\"cold_starts\":%ld}\n",
                 s.run, s.slot, s.wall_s, s.tick_s, s.pricing_s, s.master_s,
                 s.audit_s, s.sweep_s, s.pivots, s.lp_solves, s.resumed,
                 s.warm_accepts, s.cold_starts);
  }
  std::fclose(out);
}

namespace {

void print_metric(const Metric& m) {
  std::printf("%-30s %16.6f %-6s (n=%zu)%s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.samples, m.note.empty() ? "" : " ",
              m.note.c_str());
}

void print_json(const Report& report, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              report.errors.empty() ? "true" : "false", report.attempted,
              report.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: ctlbench run --workload paper|scale|service --seed N "
               "--seconds S --trace 0|1 [--trace-out F] "
               "[--inputs DIR]\n"
               "       ctlbench inputs --seed N --inputs DIR\n");
  return 2;
}

}  // namespace
}  // namespace ctlbench

int main(int argc, char** argv) {
  using namespace ctlbench;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if ((argc - 2) % 2 != 0) return usage();
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];

  Options options;
  try {
    options.workload = args["--workload"];
    options.seed = std::stoull(args.count("--seed") ? args["--seed"] : "1");
    options.seconds =
        std::stod(args.count("--seconds") ? args["--seconds"] : "10");
    options.trace = args["--trace"] == "1";
    options.inputs = args["--inputs"];
    options.trace_out = args["--trace-out"];
    if (command == "inputs") {
      make_service_inputs(options.seed, options.inputs);
      return 0;
    }
    if (command != "run") return usage();

    Report report;
    if (options.workload == "service") {
      run_service(options, report);
    } else {
      run_inprocess(options, report);
    }
    const std::vector<Metric>& metrics =
        options.trace ? report.per_layer : report.end_to_end;
    std::printf("ctlbench %s seed=%llu trace=%d\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? 1 : 0);
    for (const Metric& m : metrics) print_metric(m);
    if (options.trace) {
      std::printf("trace: %zu spans kept in memory, written to %s\n",
                  report.spans, options.trace_out.c_str());
    }
    for (const std::string& e : report.errors) {
      std::fprintf(stderr, "ctlbench: CHECK FAILED: %s\n", e.c_str());
    }
    print_json(report, metrics);
    return report.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ctlbench: %s\n", e.what());
    return 2;
  }
}
