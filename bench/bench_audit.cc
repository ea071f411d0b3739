// Cost of the plan auditor (src/audit) on the Fig. 4 workload shape.
//
// Two benchmark families answer "can fail-fast audits stay on in
// production?":
//
//   * AuditedReplay/audit:{0,1} — a full ControllerRuntime replay with a
//     Postcard backend, audits off vs fail-fast. The `audit_share_pct`
//     counter reports the auditor's self-measured seconds as a percentage
//     of mean solve time; the acceptance bar (DESIGN.md §10) is < ~5%.
//   * AuditedOfflineSlot/backend:{0,1} — a single offline controller
//     (0 = Postcard, 1 = flow baseline) driven slot by slot with fail-fast
//     audits, isolating the per-slot audit cost from the runtime's event
//     machinery.
//
// The auditor re-simulates every committed plan against the topology and
// charge ledger (flow conservation, arc capacity, deadlines, demand) and
// compares each link's X_ij with one max scan of its per-slot series, so
// its cost scales with transfers per slot plus links x slots — both small
// next to a column-generation solve over the same time-expanded graph.
//
// Build & run:  cmake --build build && ./build/bench/bench_audit
#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "core/postcard.h"
#include "flow/baseline.h"
#include "runtime/runtime.h"
#include "sim/workload.h"

namespace postcard::bench {
namespace {

// Fig. 4 shape at the reduced scale the runtime suites use: 6 DCs, 1-4
// files/slot, deadlines 1-3 slots, 10 slots.
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
  p.num_slots = 10;
  p.seed = seed;
  return p;
}

void AuditedReplay(benchmark::State& state) {
  const bool audited = state.range(0) != 0;
  const sim::UniformWorkload workload(fig4_params(17));
  double audit_seconds = 0.0;
  double audit_checks = 0.0;
  double audit_violations = 0.0;
  double mean_solve_s = 0.0;

  for (auto _ : state) {
    runtime::RuntimeOptions options;
    if (!audited) options.audit = sim::AuditControls{};  // kOff
    runtime::ControllerRuntime engine{net::Topology(workload.topology()),
                                      options};
    engine.add_postcard_backend();
    const runtime::RuntimeStats stats = engine.replay(workload);
    audit_seconds = stats.backends[0].audit_seconds;
    audit_checks = static_cast<double>(stats.backends[0].audit_checks);
    audit_violations = static_cast<double>(stats.backends[0].audit_violations);
    mean_solve_s = stats.solve_latency.mean_seconds();
  }
  state.counters["audit_checks"] = audit_checks;
  state.counters["audit_violations"] = audit_violations;
  state.counters["audit_ms"] = 1e3 * audit_seconds;
  // Auditor seconds per check vs mean slot solve time: the headline number.
  state.counters["audit_share_pct"] =
      (audit_checks > 0 && mean_solve_s > 0)
          ? 100.0 * (audit_seconds / audit_checks) / mean_solve_s
          : 0.0;
  if (audited) {
    record_json_metric("audit_ms", 1e3 * audit_seconds);
    record_json_metric("audit_share_pct", state.counters["audit_share_pct"]);
    record_json_metric("audit_violations", audit_violations);
  }
}

void AuditedOfflineSlot(benchmark::State& state) {
  const bool flow_backend = state.range(0) != 0;
  const sim::UniformWorkload workload(fig4_params(23));
  sim::AuditControls controls;
  controls.mode = sim::AuditControls::Mode::kFailFast;
  double audit_seconds = 0.0;
  double audit_checks = 0.0;

  for (auto _ : state) {
    audit_seconds = 0.0;
    audit_checks = 0.0;
    core::PostcardController postcard{net::Topology(workload.topology())};
    flow::FlowBaseline baseline{net::Topology(workload.topology())};
    sim::SchedulingPolicy& policy =
        flow_backend ? static_cast<sim::SchedulingPolicy&>(baseline)
                     : static_cast<sim::SchedulingPolicy&>(postcard);
    policy.set_audit_controls(controls);
    for (int slot = 0; slot < workload.num_slots(); ++slot) {
      const sim::ScheduleOutcome outcome =
          policy.schedule(slot, workload.batch(slot));
      audit_seconds += outcome.audit_seconds;
      audit_checks += static_cast<double>(outcome.audit_checks);
    }
  }
  state.counters["audit_checks"] = audit_checks;
  state.counters["audit_us_per_slot"] =
      audit_checks > 0 ? 1e6 * audit_seconds / audit_checks : 0.0;
  record_json_metric(
      flow_backend ? "flow_audit_us_per_slot" : "postcard_audit_us_per_slot",
      static_cast<double>(state.counters["audit_us_per_slot"]));
}

BENCHMARK(AuditedReplay)->Arg(0)->Arg(1)->ArgName("audit")->UseRealTime();
BENCHMARK(AuditedOfflineSlot)->Arg(0)->Arg(1)->ArgName("backend");

}  // namespace
}  // namespace postcard::bench

POSTCARD_BENCHMARK_MAIN_WITH_JSON("audit");
