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
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/policy.h"

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

/// Per-backend (per registered Postcard controller) counters. The solver
/// counters come from sim::SolveCounters, summed over every slot.
struct BackendStats : sim::SolveCounters {
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
  // Percentile ledger integrity: uncommits that asked for more volume than
  // the slot held (beyond rounding noise). Always 0 in a correct engine;
  // nonzero pinpoints a double-uncommit or a commit/uncommit mismatch.
  long charge_reduce_violations = 0;
  // Store-in-place carryover (the last rung of the degradation ladder,
  // DESIGN.md §9): deferred files re-enqueued into the next slot's batch
  // with one slot less deadline slack. Files deferred with no slack left
  // land in failed_files/failed_volume.
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
  // The most recent non-optimal solve status (lp::to_string).
  std::string last_solver_status;
  // Whether the plan audit was armed at registration
  // (RuntimeOptions::audit).
  bool audit_armed = false;
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
  // Latency: whole-slot processing and individual solve tasks.
  LatencyHistogram slot_latency;
  LatencyHistogram solve_latency;
  // Socket front-end accounting; all-zero outside server mode.
  ServerCounters server;
  std::vector<BackendStats> backends;
};

// ---- The field lists. Each stats struct lists every field once, in wire
// order, and the stats codec (server/protocol.cc), the replication
// fingerprint (replication/repl_protocol.cc), the metrics text
// (server/metrics.cc) and the per-slot merge below all loop over these
// lists. Adding or deleting a field means editing its declaration, its
// producer and its one entry here.

/// Whether a standby that replays the committed event log reproduces a
/// field bit for bit. The divergence fingerprint hashes exactly the
/// deterministic fields. Telemetry fields carry wall-clock time, race the
/// commit boundary (ingress, queue depth, server traffic), so two replicas
/// of one run may disagree on them, or are free text meant for people.
enum class FieldKind { kDeterministic, kTelemetry };

/// One list entry: the member, its metric name (after the exporter's
/// `postcard_`, `postcard_server_` or `postcard_backend_` prefix; nullptr
/// for a field with no metric line of its own) and its kind.
template <typename Member>
struct StatsField {
  Member member;
  const char* metric;
  FieldKind kind;
};

template <typename Member>
constexpr StatsField<Member> deterministic(Member member, const char* metric) {
  return {member, metric, FieldKind::kDeterministic};
}

template <typename Member>
constexpr StatsField<Member> telemetry(Member member, const char* metric) {
  return {member, metric, FieldKind::kTelemetry};
}

/// RuntimeStats' own scalars and histograms; `server` and `backends`
/// follow them on the wire, each through its own list.
inline constexpr auto kRuntimeFields = std::tuple{
    deterministic(&RuntimeStats::slots_processed, "slots_processed"),
    telemetry(&RuntimeStats::queue_depth, "queue_depth"),
    telemetry(&RuntimeStats::submitted, "ingress_submitted"),
    telemetry(&RuntimeStats::admitted, "ingress_admitted"),
    telemetry(&RuntimeStats::ingress_rejected, "ingress_rejected"),
    telemetry(&RuntimeStats::ingress_rejected_volume,
              "ingress_rejected_volume_gb"),
    deterministic(&RuntimeStats::link_events, "link_events"),
    telemetry(&RuntimeStats::slot_latency, "slot_latency"),
    telemetry(&RuntimeStats::solve_latency, "solve_latency"),
};

inline constexpr auto kServerFields = std::tuple{
    telemetry(&ServerCounters::sessions_opened, "sessions_opened"),
    telemetry(&ServerCounters::sessions_closed, "sessions_closed"),
    telemetry(&ServerCounters::frames_received, "frames_received"),
    telemetry(&ServerCounters::frames_sent, "frames_sent"),
    telemetry(&ServerCounters::submits, "submits"),
    telemetry(&ServerCounters::submit_admitted, "submit_admitted"),
    telemetry(&ServerCounters::backpressure_replies, "backpressure_replies"),
    telemetry(&ServerCounters::queries, "queries"),
    telemetry(&ServerCounters::protocol_errors, "protocol_errors"),
    telemetry(&ServerCounters::snapshots_written, "snapshots_written"),
    telemetry(&ServerCounters::slots_advanced, "slots_advanced"),
    telemetry(&ServerCounters::sessions_reaped, "sessions_reaped"),
};

inline constexpr auto kBackendFields = std::tuple{
    deterministic(&BackendStats::name, nullptr),  // the metrics' label
    deterministic(&BackendStats::accepted_files, "accepted_files"),
    deterministic(&BackendStats::accepted_volume, "accepted_volume_gb"),
    deterministic(&BackendStats::rejected_files, "rejected_files"),
    deterministic(&BackendStats::rejected_volume, "rejected_volume_gb"),
    deterministic(&BackendStats::delivered_files, "delivered_files"),
    deterministic(&BackendStats::delivered_volume, "delivered_volume_gb"),
    deterministic(&BackendStats::replans, "replans"),
    deterministic(&BackendStats::replanned_volume, "replanned_volume_gb"),
    deterministic(&BackendStats::failed_files, "failed_files"),
    deterministic(&BackendStats::failed_volume, "failed_volume_gb"),
    deterministic(&BackendStats::lp_iterations, "lp_iterations"),
    deterministic(&BackendStats::lp_solves, "lp_solves"),
    deterministic(&BackendStats::warm_accepts, "warm_accepts"),
    deterministic(&BackendStats::cold_starts, "cold_starts"),
    telemetry(&BackendStats::pricing_seconds, "pricing_seconds"),
    telemetry(&BackendStats::master_seconds, "master_seconds"),
    deterministic(&BackendStats::resumed_solves, "resumed_solves"),
    deterministic(&BackendStats::charge_reduce_violations,
                  "charge_reduce_violations"),
    deterministic(&BackendStats::rung_full, "rung_full_slots"),
    deterministic(&BackendStats::rung_truncated, "rung_truncated_slots"),
    deterministic(&BackendStats::rung_greedy, "rung_greedy_files"),
    deterministic(&BackendStats::carryover_files, "carryover_files"),
    deterministic(&BackendStats::carryover_volume, "carryover_volume_gb"),
    deterministic(&BackendStats::carryover_entered_files,
                  "carryover_entered_files"),
    deterministic(&BackendStats::carryover_entered_volume,
                  "carryover_entered_volume_gb"),
    deterministic(&BackendStats::degraded_slots, "degraded_slots"),
    deterministic(&BackendStats::degraded_cost_delta, "degraded_cost_delta"),
    deterministic(&BackendStats::solver_failures, "solver_failures"),
    telemetry(&BackendStats::last_solver_status, nullptr),  // free text
    deterministic(&BackendStats::gave_up_files, "gave_up_files"),
    deterministic(&BackendStats::gave_up_volume, "gave_up_volume_gb"),
    deterministic(&BackendStats::audit_armed, "audit_armed"),
    deterministic(&BackendStats::audit_checks, "audit_checks"),
    deterministic(&BackendStats::audit_violations, "audit_violations"),
    telemetry(&BackendStats::audit_seconds, "audit_seconds"),
    deterministic(&BackendStats::cost_series, nullptr),  // see the exporter
};

/// Calls `visit` on each entry of a field list, in list order.
template <typename Fields, typename Visit>
constexpr void for_each_field(const Fields& fields, Visit&& visit) {
  std::apply([&](const auto&... field) { (visit(field), ...); }, fields);
}

/// The per-slot merge: adds one slot's solver counters to a backend's
/// totals. It loops over kBackendFields and takes the entries whose member
/// a sim::SolveCounters holds, i.e. the block BackendStats inherits.
inline BackendStats& operator+=(BackendStats& total,
                                const sim::SolveCounters& slot) {
  for_each_field(kBackendFields, [&](const auto& field) {
    if constexpr (std::is_invocable_v<decltype(field.member),
                                      const sim::SolveCounters&>) {
      total.*field.member += slot.*field.member;
    }
  });
  return total;
}

}  // namespace postcard::runtime
