// Plain-data mirror of everything a ControllerRuntime needs to resume a
// charging period after a restart.
//
// The split of responsibilities: ControllerRuntime::capture_snapshot()
// fills these structs and restore_snapshot() applies them (both touch the
// runtime's private state, so they live in src/runtime); the binary file
// format — versioned header, bounds-checked decoding, checksum, atomic
// replace — lives in src/server/snapshot.h, which serializes exactly the
// fields below. Every volume and cost is carried as the exact double the
// live engine held, so a restored run without a wall-clock slot deadline
// reproduces the remaining cost series bit for bit (tested in
// tests/server).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/column_generation.h"
#include "core/plan.h"
#include "flow/baseline.h"
#include "net/file_request.h"
#include "net/topology.h"
#include "runtime/event.h"
#include "runtime/stats.h"

namespace postcard::runtime {

/// One committed, not-yet-delivered Postcard plan (InFlightPlan mirror).
struct PlanLedgerEntry {
  net::FileRequest request;
  int deadline_slot = 0;
  int last_transfer_slot = 0;
  core::FilePlan plan;
};

/// One committed, not-yet-finished baseline flow (InFlightFlow mirror).
struct FlowLedgerEntry {
  net::FileRequest request;
  flow::FlowAssignment assignment;
};

/// Everything one registered backend carries across slots.
struct BackendSnapshot {
  enum class Kind : int { kPostcard = 0, kFlow = 1, kOther = 2 };
  Kind kind = Kind::kOther;
  std::string name;

  // Charge ledger: raw per-link per-slot committed volumes, the observed
  // slot count, the reduce() mismatch counter and the running maxima X_ij
  // (see charging::ChargeState::restore). Empty for kOther backends, whose
  // generic interface exposes no restore hook.
  std::vector<std::vector<double>> series;
  int series_slots = 0;
  long reduce_violations = 0;
  std::vector<double> charged;

  // Cross-slot warm-start cache of the controller's master.
  core::MasterWarmCache warm_cache;

  // Committed in-flight work and files queued for the next solve.
  std::vector<PlanLedgerEntry> plans;
  std::vector<FlowLedgerEntry> flows;
  std::vector<net::FileRequest> replan_batch;
  std::vector<net::FileRequest> carry_batch;

  // One-shot chaos overrides armed but not yet consumed.
  long injected_stall = -1;
  int injected_fault = 0;

  BackendStats stats;
};

/// Full controller state between two ticks.
struct RuntimeSnapshot {
  // Topology fingerprint: restore refuses a runtime whose link structure
  // (endpoints, unit costs) differs. Capacities are live values and are
  // applied, not compared — LinkDown/CapacityChange survive the restart.
  int num_datacenters = 0;
  std::vector<net::Link> links;
  std::vector<double> base_capacity;
  std::vector<bool> link_down;

  // Slot clock and id allocator.
  int next_slot = 0;
  int next_synthetic_id = 0;

  // Engine-level counters and latency histograms.
  int slots_processed = 0;
  long link_events = 0;
  long solver_stalls = 0;
  long solver_faults = 0;
  LatencyHistogram slot_latency;
  LatencyHistogram solve_latency;
  LatencyHistogram solve_latency_warm;
  LatencyHistogram solve_latency_cold;

  // Ingress admission counters.
  long submitted = 0;
  long admitted = 0;
  long ingress_rejected = 0;
  double ingress_rejected_volume = 0.0;

  // Idempotent-submission dedup set (sorted for deterministic bytes);
  // empty unless RuntimeOptions::dedup_submissions. Carried so a retry
  // that lands after a failover is still recognized as a duplicate.
  std::vector<int> admitted_ids;

  // Event-queue sequence watermark at capture time: every push with
  // seq < watermark is either drained into the state above or inside
  // pending_events. The replication primary filters its tapped push
  // buffer against this after shipping a snapshot.
  std::uint64_t event_seq_watermark = 0;

  // Events still queued at capture time (future arrivals, scheduled
  // failures, armed chaos), in drain order.
  std::vector<Event> pending_events;

  std::vector<BackendSnapshot> backends;
};

}  // namespace postcard::runtime
