// Flow-based baseline (Sec. II-B): no store-and-forward.
//
// Every file k becomes a *flow* with fixed rate r_k = F_k / T_k that stays in
// the network for exactly T_k slots. Routing may split a flow across
// multiple multi-hop paths, but nothing is ever held at an intermediate
// datacenter: the rate pattern on every chosen link is constant over the
// flow's lifetime.
//
// Two solution modes:
//   * two_stage = true (paper-faithful): first a maximum concurrent flow
//     packs the largest common fraction lambda of all demands into "free"
//     capacity (volume below the already-charged X_ij), then a min-cost
//     multicommodity flow routes the residual (1-lambda) fraction minimizing
//     the charge increase.
//   * two_stage = false: one LP solves the flow model exactly (the epigraph
//     trick linearizes the charge objective). No bench runs it; it is the
//     reference the baseline tests hold the two-stage mode against.
//
// When a batch cannot be scheduled (link capacities cannot support all
// rates), the policy drops the file with the largest rate and retries —
// dropped volume is reported in the ScheduleOutcome.
#pragma once

#include <utility>
#include <vector>

#include "charging/charge_state.h"
#include "net/file_request.h"
#include "net/topology.h"
#include "sim/policy.h"

namespace postcard::flow {

struct FlowBaselineOptions {
  bool two_stage = true;
};

/// Routing decision for one file: constant link rates over its lifetime.
struct FlowAssignment {
  int file_id = 0;
  double rate = 0.0;  // r_k = F_k / T_k (GB per slot)
  int start_slot = 0;
  int duration = 0;  // T_k slots
  std::vector<std::pair<int, double>> link_rates;  // (topology link, rate)
};

class FlowBaseline : public sim::SchedulingPolicy {
 public:
  explicit FlowBaseline(net::Topology topology,
                        FlowBaselineOptions options = FlowBaselineOptions{});

  sim::ScheduleOutcome schedule(
      int slot, const std::vector<net::FileRequest>& files) override;
  double cost_per_interval() const override {
    return charge_.cost_per_interval(topology_);
  }
  const charging::ChargeState& charge_state() const override { return charge_; }
  std::string name() const override {
    return options_.two_stage ? "flow-based (two-stage)" : "flow-based (exact)";
  }

  /// Assignments produced by the most recent schedule() call.
  const std::vector<FlowAssignment>& last_assignments() const {
    return last_assignments_;
  }

  const net::Topology& topology() const { return topology_; }

  /// Arms the plan auditor: every subsequent schedule() re-verifies the
  /// committed assignments against the paper invariants (src/audit) and
  /// reports through ScheduleOutcome::audit_*; kFailFast throws
  /// std::logic_error on the first violating slot.
  bool set_audit_controls(const sim::AuditControls& controls) override {
    audit_controls_ = controls;
    return true;
  }

 private:
  /// Residual physical capacity of `link` during `slot`.
  double residual_capacity(int link, int slot) const;

  /// Post-commit audit of last_assignments_ + the charge state.
  void run_audit(int slot, const std::vector<net::FileRequest>& files,
                 sim::ScheduleOutcome& outcome) const;

  /// Attempts to schedule the whole batch; fills `assignments` and returns
  /// true on success. No state is committed on failure.
  bool try_schedule(int slot, const std::vector<net::FileRequest>& files,
                    std::vector<FlowAssignment>& assignments,
                    sim::ScheduleOutcome& outcome);

  net::Topology topology_;
  FlowBaselineOptions options_;
  charging::ChargeState charge_;
  std::vector<FlowAssignment> last_assignments_;
  sim::AuditControls audit_controls_;
};

}  // namespace postcard::flow
