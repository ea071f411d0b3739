// Abstract online scheduling policy.
//
// Both Postcard and the flow-based baseline implement this interface: at
// every time slot the simulator hands the policy the batch K(t) of newly
// released files; the policy routes/schedules them (possibly rejecting some
// when the network cannot meet their deadlines) and updates its internal
// charge state. Costs are read back through the 100-th percentile charge
// state; the full per-slot traffic history remains available for ex-post
// q-percentile accounting.
#pragma once

#include <string>
#include <vector>

#include "charging/charge_state.h"
#include "net/file_request.h"

namespace postcard::sim {

/// The solver counters a policy reports for each schedule() call. The
/// runtime's per-backend stats inherit the same block and sum it slot by
/// slot (runtime/stats.h), so each counter is declared here only.
struct SolveCounters {
  long lp_iterations = 0;  // summed over the LPs solved
  int lp_solves = 0;
  // Round-0 start accounting (policies without a column-generation master
  // leave both zero): solves whose round-0 master started primal feasible
  // from the solver's crash basis vs. solves whose round 0 ran phase 1.
  long warm_accepts = 0;
  long cold_starts = 0;
  // Solver hot-path split (column-generation backends; others leave zero):
  // wall time inside the pricing DP vs. the restricted-master solves, and
  // master solves resumed in place on the incumbent factorization.
  double pricing_seconds = 0.0;
  double master_seconds = 0.0;
  long resumed_solves = 0;
  // Degradation-ladder rungs (DESIGN.md §9; policies without a ladder leave
  // zero): slots that committed the full LP optimum / a budget-truncated
  // incumbent master, and files routed by the greedy shortest-path
  // fallback. At most one of rung_full/rung_truncated is set per slot.
  long rung_full = 0;
  long rung_truncated = 0;
  long rung_greedy = 0;
  // Solver-failure visibility ("no silent drop" rule): slot solves that
  // ended non-optimal.
  long solver_failures = 0;
  // Greedy chunk-budget exhaustion: volume abandoned because
  // max_chunks_per_file ran out, not because the network was full.
  long gave_up_files = 0;
  double gave_up_volume = 0.0;
  // Plan audits (src/audit; active only under AuditControls): commits
  // audited, violations found and wall time spent auditing. A violation
  // throws (fail-fast) before the outcome is returned, so a returned
  // outcome, and a completed run's stats, always read zero violations.
  long audit_checks = 0;
  long audit_violations = 0;
  double audit_seconds = 0.0;

  /// Share of seeded solves whose seed was accepted; 0 before any solve.
  double warm_accept_rate() const {
    const long starts = warm_accepts + cold_starts;
    return starts > 0 ? static_cast<double>(warm_accepts) /
                            static_cast<double>(starts)
                      : 0.0;
  }
};

struct ScheduleOutcome : SolveCounters {
  std::vector<int> accepted_ids;
  std::vector<int> rejected_ids;
  double rejected_volume = 0.0;  // GB that could not be scheduled
  // Files neither the (truncated) LP nor the greedy fallback could place
  // this slot. They were NOT accepted and NOT rejected-for-capacity: the
  // caller decides between store-in-place carryover and loud failure.
  std::vector<int> deferred_ids;
  double deferred_volume = 0.0;
  // The last non-optimal solve status this slot (lp::to_string form).
  std::string solver_status;
};

/// Plan-audit knob (src/audit): under kFailFast, after every commit the
/// policy re-verifies the paper invariants (6)-(10) on what it actually
/// committed, plus the charge state's consistency (X_ij against each
/// series maximum), and throws std::logic_error with the audit summary on
/// any violation — no invalid plan survives a slot. The runtime arms
/// fail-fast by default; the offline controllers default to kOff so the
/// figure benches measure the solver, not the audit.
struct AuditControls {
  enum class Mode { kOff = 0, kFailFast };
  Mode mode = Mode::kOff;

  bool active() const { return mode != Mode::kOff; }
};

class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// Schedules the batch released at `slot`. Slots must be presented in
  /// non-decreasing order.
  virtual ScheduleOutcome schedule(int slot,
                                   const std::vector<net::FileRequest>& files) = 0;

  /// Current cost per time interval, sum_ij a_ij X_ij(t).
  virtual double cost_per_interval() const = 0;

  /// Charge state (per-link X_ij and full slot history).
  virtual const charging::ChargeState& charge_state() const = 0;

  /// Arms the plan auditor applied after every subsequent commit (sticky
  /// until replaced; a default-constructed AuditControls disarms it).
  /// Returns false when the policy has no audit support (the greedy
  /// heuristic), so a caller never assumes coverage that is not there.
  virtual bool set_audit_controls(const AuditControls& /*controls*/) {
    return false;
  }

  virtual std::string name() const = 0;
};

}  // namespace postcard::sim
