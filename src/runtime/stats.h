// Runtime observability: latency histograms and the RuntimeStats snapshot.
//
// RuntimeStats is the seam later PRs hook dashboards and regression gates
// into; everything the engine knows about its own behaviour — queue depth,
// admission decisions, solve latency, replans, failures — is surfaced here
// as plain values so a snapshot is cheap to copy out under the stats lock.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace postcard::runtime {

/// Log-scaled latency histogram: bucket b covers [2^b, 2^(b+1)) microseconds,
/// so the range spans 1 us .. ~134 s. Quantiles report the upper edge of the
/// bucket containing the requested rank (a conservative estimate).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 27;

  void add(double seconds);

  std::int64_t count() const { return count_; }
  double max_seconds() const { return max_seconds_; }
  /// Exact mean of the recorded samples (tracked outside the buckets, so it
  /// carries no bucketing error), 0 when empty.
  double mean_seconds() const {
    return count_ > 0 ? total_seconds_ / static_cast<double>(count_) : 0.0;
  }
  /// q in [0, 1]; e.g. quantile(0.99) is the p99 latency in seconds.
  double quantile(double q) const;

  // --- Snapshot capture/restore (src/server serializes these verbatim) ---
  const std::array<std::int64_t, kBuckets>& buckets() const { return buckets_; }
  double total_seconds() const { return total_seconds_; }
  static LatencyHistogram restore(const std::array<std::int64_t, kBuckets>& buckets,
                                  std::int64_t count, double total_seconds,
                                  double max_seconds) {
    LatencyHistogram h;
    h.buckets_ = buckets;
    h.count_ = count;
    h.total_seconds_ = total_seconds;
    h.max_seconds_ = max_seconds;
    return h;
  }

 private:
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t count_ = 0;
  double total_seconds_ = 0.0;
  double max_seconds_ = 0.0;
};

/// Per-backend (per registered policy) counters.
struct BackendStats {
  std::string name;
  long accepted_files = 0;
  double accepted_volume = 0.0;  // GB admitted by the solver
  long rejected_files = 0;
  double rejected_volume = 0.0;  // GB the solver could not schedule
  long delivered_files = 0;      // plans that completed before their deadline
  double delivered_volume = 0.0;
  long replans = 0;              // re-solves triggered by LinkDown events
  double replanned_volume = 0.0;
  long failed_files = 0;         // accepted, then unsalvageable after failure
  double failed_volume = 0.0;
  long lp_iterations = 0;
  int lp_solves = 0;
  // Cross-slot warm starts: master solves whose seeded basis was verified
  // and accepted vs. solves run cold (nothing seeded, or rejected).
  long warm_accepts = 0;
  long cold_starts = 0;
  // Solver hot-path split (column-generation backends only): wall time in
  // the pricing DP vs. the restricted-master solves, master solves resumed
  // in place on the incumbent factorization, and dual-warm-start outcomes
  // (slots seeded from cached duals / columns those seeds contributed).
  double pricing_seconds = 0.0;
  double master_seconds = 0.0;
  long resumed_solves = 0;
  long dual_warm_attempts = 0;
  long dual_seed_columns = 0;
  // Percentile ledger integrity: uncommits that asked for more volume than
  // the slot held (beyond rounding noise). Always 0 in a correct engine;
  // nonzero pinpoints a double-uncommit or a commit/uncommit mismatch.
  long charge_reduce_violations = 0;
  // ---- Degradation ladder (slot watchdog; see DESIGN.md §9). Per-rung
  // slot counts: full LP optimum committed / budget-truncated incumbent
  // committed / files placed by the greedy fallback. All zero unless a
  // budget or injected fault is active.
  long rung_full = 0;
  long rung_truncated = 0;
  long rung_greedy = 0;
  // Files placed by the DCRoute single-path rung (between truncated CG and
  // the greedy chunker; zero unless PostcardOptions::use_dcroute_rung).
  long rung_dcroute = 0;
  // Store-in-place carryover (the last rung): deferred files re-enqueued
  // into the next slot's batch with one slot less deadline slack. Files
  // deferred with no slack left land in failed_files/failed_volume.
  long carryover_files = 0;
  double carryover_volume = 0.0;
  // Distinct files that entered a carry chain, counted on the FIRST
  // deferral only. carryover_files/volume count hops — a 3-slot chain is
  // three hops but one file — so the pair above inflates with chain
  // length while this pair matches the files the accounting identity
  // sees. (carryover_files - carryover_entered_files) is the number of
  // repeat hops.
  long carryover_entered_files = 0;
  double carryover_entered_volume = 0.0;
  // Slots where any rung below full LP fired, and the cost-per-interval
  // increase accumulated across exactly those slots (ablation handle:
  // what the degradation cost relative to the charge level it started at).
  long degraded_slots = 0;
  double degraded_cost_delta = 0.0;
  // Solver-failure visibility: slot solves that ended non-optimal, with
  // the most recent status string (lp::to_string / "fault_injected").
  long solver_failures = 0;
  std::string last_solver_status;
  // Greedy chunk-budget exhaustion (max_chunks_per_file ran out).
  long gave_up_files = 0;
  double gave_up_volume = 0.0;
  // ---- Plan audits (src/audit; armed via RuntimeOptions::audit). Whether
  // the backend accepted the audit controls at registration, how many
  // commits were re-verified (policy-side self-audits), violations found,
  // wall time spent auditing, and the first violation reports (capped by
  // AuditControls::max_reports). In kFailFast mode violations throw before
  // reaching these counters, so a completed run shows zero.
  bool audit_armed = false;
  long audit_checks = 0;
  long audit_violations = 0;
  double audit_seconds = 0.0;
  std::vector<std::string> audit_reports;
  std::vector<double> cost_series;  // cost per interval after each slot
};

/// Network front-end counters (src/server). Zero unless the runtime is
/// driven by a PostcardServer, which folds its per-session accounting into
/// every RuntimeStats snapshot it exports — the QueryStats reply and the
/// `--metrics-dump` text surface both read from here.
struct ServerCounters {
  long sessions_opened = 0;
  long sessions_closed = 0;
  long frames_received = 0;
  long frames_sent = 0;
  long submits = 0;             // SubmitFile + SubmitBatch file entries
  long submit_admitted = 0;     // entries the admission control let through
  long backpressure_replies = 0;  // explicit Backpressure verdicts sent back
  long queries = 0;             // QueryPlan + QueryStats requests served
  long protocol_errors = 0;     // malformed frames; each closes its session
  long snapshots_written = 0;
  long slots_advanced = 0;      // slots ticked by AdvanceSlot commands/timer
  long sessions_reaped = 0;     // idle/stalled sessions closed by the reaper
};

/// Snapshot of the whole engine; see ControllerRuntime::stats().
struct RuntimeStats {
  int slots_processed = 0;
  std::size_t queue_depth = 0;  // events still pending at snapshot time
  // Ingress admission.
  long submitted = 0;
  long admitted = 0;
  long ingress_rejected = 0;
  double ingress_rejected_volume = 0.0;
  // Network dynamics.
  long link_events = 0;
  // Chaos injection: SolverStall / SolverFault events processed.
  long solver_stalls = 0;
  long solver_faults = 0;
  // Latency: whole-slot processing and individual solve tasks. The solve
  // histogram is additionally split by how the slot's first master solve
  // started (warm-accepted vs. cold); solves with no LP at all (empty
  // batches, non-LP policies) appear only in the combined histogram.
  LatencyHistogram slot_latency;
  LatencyHistogram solve_latency;
  LatencyHistogram solve_latency_warm;
  LatencyHistogram solve_latency_cold;
  // Socket front-end accounting; all-zero outside server mode.
  ServerCounters server;
  std::vector<BackendStats> backends;
};

}  // namespace postcard::runtime
