// The configuration a ControllerRuntime runs under. Every snapshot image
// records it (runtime/snapshot_state.h), so a replication standby builds
// its mirror under exactly the primary's configuration.
#pragma once

#include "sim/policy.h"

namespace postcard::runtime {

struct RuntimeOptions {
  /// Slot watchdog (degradation ladder; see DESIGN.md §9). A positive
  /// budget caps the lp::SolveBudget units each backend may spend per
  /// slot, one per simplex iteration step: every pivot, and also each
  /// pass that proves a phase optimal (lp/budget.h). A count, not a
  /// clock, so replays degrade identically. 0 (or less) disables.
  long slot_pivot_budget = 0;
  /// Plan auditor (src/audit), armed on every backend at registration.
  /// Fail-fast by default: an operational engine must never run on an
  /// invalid plan, and the audit's cost is a few percent of a slot solve.
  /// Set audit.mode = kOff to benchmark the bare solver.
  sim::AuditControls audit{sim::AuditControls::Mode::kFailFast};
  /// Idempotent submissions: a SubmitFile whose id was already admitted is
  /// acknowledged without re-enqueuing (AdmissionResult.duplicate). Needed
  /// for exactly-once client retry across a replicated-controller failover;
  /// off by default because standalone callers may legitimately reuse ids.
  bool dedup_submissions = false;
};

}  // namespace postcard::runtime
