// `paper` and `scale`: one thread drives ControllerRuntime directly. Per
// slot it submits the batch through RequestIngress::submit, times tick(),
// then reads every file's plan back with query_plan, as a transfer agent
// would before moving data.
#include <sched.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "bench.h"
#include "runtime/runtime.h"
#include "server/snapshot.h"

namespace ctlbench {
namespace {

using postcard::net::FileRequest;
using postcard::net::Topology;
using postcard::runtime::BackendStats;
using postcard::runtime::ControllerRuntime;
using postcard::runtime::RuntimeOptions;
using postcard::runtime::RuntimeStats;

// Extra constructions before each episode, so setup_s is a median of many
// samples taken across the whole run rather than in one instant of it.
constexpr int kSetupsPerEpisode = 20;

RuntimeOptions runtime_options(const std::string& workload) {
  RuntimeOptions options;  // deterministic, fail-fast auditor
  if (workload == "scale") options.slot_pivot_budget = kScalePivotBudget;
  return options;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Moves the calling thread, the only one this driver runs, onto `cpu`.
void move_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Builds a controller ready for its first request; returns the wall time.
double set_up(const Topology& topology, const RuntimeOptions& options,
              std::unique_ptr<ControllerRuntime>* engine) {
  Topology copy(topology);  // the input, made before the clock starts
  const Clock::time_point begin = Clock::now();
  *engine = std::make_unique<ControllerRuntime>(std::move(copy), options);
  (*engine)->add_postcard_backend();
  return seconds_since(begin);
}

/// What one episode decided; every field must repeat bit for bit.
struct Outcome {
  double cost = 0.0;
  double delivered_volume = 0.0;
  long accepted = 0;
  long rejected = 0;
  long failed = 0;
  long delivered = 0;
  long degraded = 0;
  long greedy = 0;
  long carryover = 0;
  long pivots = 0;

  bool operator==(const Outcome& o) const {
    return std::memcmp(&cost, &o.cost, sizeof cost) == 0 &&
           std::memcmp(&delivered_volume, &o.delivered_volume,
                       sizeof delivered_volume) == 0 &&
           accepted == o.accepted && rejected == o.rejected &&
           failed == o.failed && delivered == o.delivered &&
           degraded == o.degraded && greedy == o.greedy &&
           carryover == o.carryover && pivots == o.pivots;
  }
};

SlotDelta delta(const RuntimeStats& before, const RuntimeStats& after) {
  const BackendStats& a = before.backends[0];
  const BackendStats& b = after.backends[0];
  SlotDelta d;
  d.tick_s = after.slot_latency.total_seconds() -
             before.slot_latency.total_seconds();
  d.pricing_s = b.pricing_seconds - a.pricing_seconds;
  d.master_s = b.master_seconds - a.master_seconds;
  d.audit_s = b.audit_seconds - a.audit_seconds;
  d.pivots = b.lp_iterations - a.lp_iterations;
  d.lp_solves = b.lp_solves - a.lp_solves;
  d.resumed = b.resumed_solves - a.resumed_solves;
  d.warm_accepts = b.warm_accepts - a.warm_accepts;
  d.cold_starts = b.cold_starts - a.cold_starts;
  return d;
}

/// The in-process counterpart of the service's restore_from: decodes the
/// engine's snapshot and restores it into a fresh controller. Returns the
/// wall time; `bytes` receives the encoded snapshot's size.
double time_restore(const ControllerRuntime& engine, const Topology& topology,
                    const RuntimeOptions& options, double* bytes) {
  const std::vector<std::uint8_t> image =
      postcard::server::encode_snapshot(engine.capture_snapshot());
  *bytes = static_cast<double>(image.size());
  std::unique_ptr<ControllerRuntime> fresh;
  set_up(topology, options, &fresh);
  const Clock::time_point begin = Clock::now();
  fresh->restore_snapshot(postcard::server::decode_snapshot(image));
  return seconds_since(begin);
}

/// One traffic draw: its batches and offered volume, made before any clock.
struct Draw {
  std::vector<std::vector<FileRequest>> batches;
  double offered_volume = 0.0;
};

Draw make_draw(const postcard::sim::WorkloadGenerator& workload) {
  Draw d;
  for (int slot = 0; slot < workload.num_slots(); ++slot) {
    d.batches.push_back(workload.batch(slot));
    for (const FileRequest& f : d.batches.back()) d.offered_volume += f.size;
  }
  return d;
}

Outcome run_episode(const Topology& topology, const RuntimeOptions& options,
                    const std::vector<std::vector<FileRequest>>& batches,
                    int draw, int run, bool traced, SpanRecorder& spans,
                    Samples& setup, Timings& timings, LayerData& layers,
                    HostProbe& probe, Report& report) {
  std::unique_ptr<ControllerRuntime> engine;
  setup.add(set_up(topology, options, &engine));
  spans.set_active(traced);

  RuntimeStats prev;  // traced: the counters before the next slot
  if (traced) prev = engine->stats();
  timings.begin_episode(draw);
  long ingress_rejected = 0;
  long plans_found = 0;
  postcard::core::FilePlan plan;
  FileRequest request;
  const int num_slots = static_cast<int>(batches.size());
  for (int slot = 0; slot < num_slots; ++slot) {
    const std::vector<FileRequest>& batch = batches[slot];
    SpanScope slot_span(spans, "slot", -1, run);
    const Clock::time_point begin = Clock::now();
    for (const FileRequest& f : batch) {
      SpanScope span(spans, "RequestIngress::submit", slot_span.id(), run);
      const Clock::time_point t0 = Clock::now();
      const bool admitted = engine->ingress().submit(f).admitted;
      const double dt = seconds_since(t0);
      timings.submit().add(dt);
      if (traced) layers.submit.add(dt);
      if (!admitted) ++ingress_rejected;
    }
    double tick_s = 0.0;
    {
      SpanScope span(spans, "tick", slot_span.id(), run);
      const Clock::time_point t0 = Clock::now();
      engine->tick();
      tick_s = seconds_since(t0);
    }
    for (const FileRequest& f : batch) {
      SpanScope span(spans, "query_plan", slot_span.id(), run);
      const Clock::time_point t0 = Clock::now();
      const bool found = engine->query_plan(0, f.id, &plan, &request);
      const double dt = seconds_since(t0);
      timings.query().add(dt);
      if (traced) layers.query.add(dt);
      if (found) {
        ++plans_found;
        report.check(plan.file_id == f.id && request.size == f.size,
                     "query_plan returned another file's plan");
      }
    }
    timings.add_slot(tick_s, seconds_since(begin),
                     static_cast<int>(batch.size()));
    if (slot % HostProbe::kEverySlots == 0) probe.sample();

    if (traced) {
      RuntimeStats now = engine->stats();
      SlotDelta d = delta(prev, now);
      prev = std::move(now);
      d.run = run;
      d.slot = slot;
      d.wall_s = tick_s;
      SpanScope span(spans, "audit_charge_state", slot_span.id(), run);
      const Clock::time_point t0 = Clock::now();
      const postcard::audit::AuditReport audit =
          postcard::audit::audit_charge_state(
              engine->policy(0).charge_state(), topology);
      d.sweep_s = seconds_since(t0);
      report.check(audit.ok(), "audit_charge_state: " + audit.summary(4));
      layers.slots.push_back(d);
      layers.traced_slot.add(tick_s);
    } else {
      layers.untraced_slot.add(tick_s);
    }
  }
  spans.set_active(false);
  if (traced) {
    layers.restore.add(
        time_restore(*engine, topology, options, &layers.snapshot_bytes));
  }

  const RuntimeStats open = engine->stats();
  engine->flush_in_flight();
  const RuntimeStats done = engine->stats();
  const BackendStats& a = open.backends[0];
  const BackendStats& b = done.backends[0];

  // Output checks: the auditor stayed armed fail-fast and found nothing,
  // and every admitted file ended in exactly one terminal counter.
  report.check(done.slots_processed == num_slots, "slots processed");
  report.check(options.audit.mode ==
                       postcard::sim::AuditControls::Mode::kFailFast &&
                   b.audit_armed && b.audit_checks >= num_slots,
               "plan auditor not armed fail-fast on every slot");
  report.check(b.audit_violations == 0, "audit_violations != 0");
  report.check(b.charge_reduce_violations == 0,
               "charge_reduce_violations != 0");
  report.check(done.ingress_rejected == ingress_rejected,
               "ingress rejections disagree with submit verdicts");
  const long carried =
      open.admitted - (a.accepted_files + a.rejected_files + a.failed_files);
  report.check(carried >= 0 && b.failed_files - a.failed_files == carried,
               "accepted + rejected + failed + carried != admitted");
  report.check(b.accepted_files + b.rejected_files + b.failed_files ==
                   done.admitted,
               "accepted + rejected + failed != admitted after the flush");
  report.check(b.delivered_files == b.accepted_files,
               "an accepted file was not delivered");
  report.check(b.degraded_slots > 0 ? plans_found <= b.accepted_files
                                    : plans_found == b.accepted_files,
               "query_plan misses committed plans");
  const double cost = engine->policy(0).cost_per_interval();
  report.check(!b.cost_series.empty() && b.cost_series.back() == cost,
               "cost series disagrees with the charge state");

  Outcome out;
  out.cost = cost;
  out.delivered_volume = b.delivered_volume;
  out.accepted = b.accepted_files;
  out.rejected = b.rejected_files + done.ingress_rejected;
  out.failed = b.failed_files;
  out.delivered = b.delivered_files;
  out.degraded = b.degraded_slots;
  out.greedy = b.rung_greedy;
  out.carryover = b.carryover_files;
  out.pivots = b.lp_iterations;
  report.attempted += open.submitted;
  report.failed += open.submitted - b.delivered_files;
  return out;
}

}  // namespace

void run_inprocess(const Options& options, Report& report) {
  // Inputs first, before any clock starts.
  const RunShape shape =
      run_shape(options.workload, options.seconds, options.trace);
  std::unique_ptr<postcard::sim::WorkloadGenerator> workload;
  std::vector<Draw> draws;
  for (int d = 0; d < shape.draws; ++d) {
    workload = make_workload(options.workload, draw_seed(options.seed, d));
    draws.push_back(make_draw(*workload));
  }
  const Topology& topology = workload->topology();  // the same for every draw
  const RuntimeOptions runtime = runtime_options(options.workload);

  // Warm-up, untimed, on a fresh controller with its own accumulators
  // (the host probe's samples count: they time the host, not the program):
  // draw 0, which the measured episodes must then decide the same way, so
  // it also checks that the same inputs decide the same outcome.
  HostProbe probe;
  Outcome warm_up;
  {
    Samples unused_setup;
    Timings unused_timings;
    LayerData unused_layers;
    SpanRecorder off;
    Report warm;
    warm_up = run_episode(topology, runtime, draws[0].batches, 0, -1, false,
                          off, unused_setup, unused_timings, unused_layers,
                          probe, warm);
    report.errors.insert(report.errors.end(), warm.errors.begin(),
                         warm.errors.end());
  }

  // The episodes take turns on the process's CPUs, so every run spends the
  // same share of its time on each: the CPUs of a shared host differ in
  // speed (by ~20% on the 4-vCPU VM that defined the benchmark), and a run
  // left on one CPU would read that CPU's speed. A traced run, which
  // alternates untraced and traced episodes, moves every other episode so
  // that both kinds meet every CPU.
  const std::vector<int> cpus = allowed_cpus();
  Samples setup;
  SpanRecorder spans;
  LayerData layers;
  Timings timings;
  std::vector<Outcome> outcomes(static_cast<std::size_t>(shape.draws));
  for (int e = 0; e < shape.episodes(); ++e) {
    const int turn = options.trace ? e / 2 : e;
    if (!cpus.empty()) {
      move_to(cpus[static_cast<std::size_t>(turn) % cpus.size()]);
    }
    for (int i = 0; i < kSetupsPerEpisode; ++i) {
      std::unique_ptr<ControllerRuntime> engine;
      setup.add(set_up(topology, runtime, &engine));
    }
    const int d = e % shape.draws;
    const bool traced = options.trace && e % 2 == 1;
    const Outcome out =
        run_episode(topology, runtime, draws[d].batches, d, e, traced, spans,
                    setup, timings, layers, probe, report);
    if (e < shape.draws) {
      outcomes[d] = out;
    } else {
      report.check(out == outcomes[d],
                   "episode " + std::to_string(e) + " decided draw " +
                       std::to_string(d) + " differently");
    }
  }
  report.check(outcomes[0] == warm_up,
               "draw 0 decided differently from its warm-up");

  // Per-episode counts, averaged over the draws; cost per interval is the
  // mean over draws of each draw's final cost, as in the paper's figures.
  double cost = 0.0, delivered = 0.0, offered = 0.0;
  for (std::size_t d = 0; d < outcomes.size(); ++d) {
    const Outcome& o = outcomes[d];
    cost += o.cost;
    delivered += o.delivered_volume;
    offered += draws[d].offered_volume;
    layers.degraded_slots += o.degraded;
    layers.greedy_files += o.greedy;
    layers.carryover_files += o.carryover;
    layers.rejected_files += o.rejected;
    layers.failed_files += o.failed;
  }
  layers.per_episode = static_cast<double>(outcomes.size());
  cost /= static_cast<double>(outcomes.size());
  report.spans = spans.size();

  if (options.trace) {
    layers.probe_s = probe.samples().median();
    add_layer_metrics(layers, report);
    write_trace(options.trace_out, spans, layers);
    return;
  }
  report.end_to_end =
      timings.end_to_end(setup, cost, delivered / offered, probe);
}

}  // namespace ctlbench
