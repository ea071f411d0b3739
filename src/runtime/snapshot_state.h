// Plain-data mirror of everything a ControllerRuntime needs to resume a
// charging period after a restart, and of the configuration that produced
// it: a replication standby builds its mirror from these fields alone.
//
// The split of responsibilities: ControllerRuntime::capture_snapshot()
// fills these structs and restore_snapshot() applies them (both touch the
// runtime's private state, so they live in src/runtime); the binary file
// format — versioned header, bounds-checked decoding, checksum, atomic
// replace — lives in src/server/snapshot.h. Each struct lists its members
// once, in wire order, in its `wire_fields`, and the generic codec of
// server/protocol.h serializes exactly those lists. Every volume and cost
// is carried as the exact double the live engine held, so a restored run
// reproduces the remaining cost series bit for bit (tested in
// tests/server).
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/plan.h"
#include "core/postcard.h"
#include "net/file_request.h"
#include "net/topology.h"
#include "runtime/event.h"
#include "runtime/options.h"
#include "runtime/stats.h"

namespace postcard::runtime {

/// One committed, not-yet-delivered Postcard plan: an entry of a
/// backend's in-flight ledger, live and in the snapshot alike.
struct PlanLedgerEntry {
  net::FileRequest request;
  int deadline_slot = 0;       // release + T, exclusive
  int last_transfer_slot = 0;  // delivery completes at the end of this slot
  core::FilePlan plan;

  friend constexpr auto wire_fields(const PlanLedgerEntry*) {
    using E = PlanLedgerEntry;
    return std::tuple{&E::request, &E::deadline_slot, &E::last_transfer_slot,
                      &E::plan};
  }
};

/// Everything one registered Postcard backend carries across slots.
struct BackendSnapshot {
  // The options the backend was registered with: restore refuses a target
  // whose backend differs in any field (the name lives in `stats`).
  core::PostcardOptions options;

  // Charge ledger: raw per-link per-slot committed volumes, the observed
  // slot count and the reduce() mismatch counter. X_ij is not stored: it
  // is each series' maximum (see charging::ChargeState::restore).
  std::vector<std::vector<double>> series;
  int series_slots = 0;
  long reduce_violations = 0;

  // Committed in-flight work and files queued for the next solve.
  std::vector<PlanLedgerEntry> plans;
  std::vector<net::FileRequest> replan_batch;
  std::vector<net::FileRequest> carry_batch;

  BackendStats stats;

  friend constexpr auto wire_fields(const BackendSnapshot*) {
    using B = BackendSnapshot;
    return std::tuple{&B::options, &B::series, &B::series_slots,
                      &B::reduce_violations, &B::plans, &B::replan_batch,
                      &B::carry_batch, &B::stats};
  }
};

/// Full controller state between two ticks.
struct RuntimeSnapshot {
  // The options the captured runtime ran under. Restore keeps the
  // target's own, so a restart may change them; a standby adopts these.
  RuntimeOptions options;

  // Topology fingerprint: restore refuses a runtime whose link structure
  // (endpoints, unit costs) differs. Capacities are live values and are
  // applied, not compared — LinkDown/CapacityChange survive the restart.
  int num_datacenters = 0;
  std::vector<net::Link> links;
  std::vector<double> base_capacity;
  std::vector<bool> link_down;

  // Slot clock (the event queue's open slot) and id allocator.
  int next_slot = 0;
  int next_synthetic_id = 0;

  // Engine-level counters and latency histograms.
  int slots_processed = 0;
  long link_events = 0;
  LatencyHistogram slot_latency;
  LatencyHistogram solve_latency;

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
  // link changes), in drain order.
  std::vector<Event> pending_events;

  std::vector<BackendSnapshot> backends;

  friend constexpr auto wire_fields(const RuntimeSnapshot*) {
    using S = RuntimeSnapshot;
    return std::tuple{&S::options, &S::num_datacenters, &S::links,
                      &S::base_capacity, &S::link_down, &S::next_slot,
                      &S::next_synthetic_id, &S::slots_processed,
                      &S::link_events, &S::slot_latency, &S::solve_latency,
                      &S::submitted, &S::admitted, &S::ingress_rejected,
                      &S::ingress_rejected_volume, &S::admitted_ids,
                      &S::event_seq_watermark, &S::pending_events,
                      &S::backends};
  }
};

}  // namespace postcard::runtime
