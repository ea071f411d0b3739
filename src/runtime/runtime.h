// The online controller runtime: a slot-clocked, event-driven engine that
// turns the offline batch replay of src/sim into an operational service.
//
// Architecture (see DESIGN.md, "Online controller runtime"):
//
//   producers --> RequestIngress --> EventQueue <-- fail_link()/...
//                                        |
//                                  tick() driver          (single thread)
//                                        |
//                       per Postcard backend, in registration order:
//                       build batch -> schedule() -> commit plans,
//                       update in-flight ledger, record cost;
//                       LinkDown events trigger replans
//
// Threading & ownership rules:
//   * Any number of threads may call RequestIngress::submit() and the
//     event-injection helpers; they touch only the locked event queue,
//     the ingress's own capacity view and the topology's fixed link count.
//   * Exactly one driver thread calls tick()/run()/replay(). It owns the
//     controllers, the in-flight ledger and the stats, and runs every solve
//     itself, single-threaded: no solve starts a thread of its own.
//   * stats() may be called from any thread; it copies under the stats
//     lock which the driver takes only while merging, never while solving.
//
// Determinism guarantee: when no failure events fire and batches arrive in
// workload order, each backend receives exactly the schedule() call
// sequence that sim::run_simulation would issue, so with the watchdog
// unarmed its cost series is bit-for-bit identical to the offline replay.
// Every configuration the runtime accepts is reproducible for a fixed
// submission order, event-driven runs (link failures, pivot budgets)
// included: no input to a slot's plan reads a clock.
#pragma once

#include <map>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "core/postcard.h"
#include "net/topology.h"
#include "runtime/event.h"
#include "runtime/ingress.h"
#include "runtime/options.h"
#include "runtime/snapshot_state.h"
#include "runtime/stats.h"
#include "sim/policy.h"
#include "sim/workload.h"

namespace postcard::runtime {

class ControllerRuntime {
 public:
  ControllerRuntime(net::Topology topology, RuntimeOptions options = {});
  ~ControllerRuntime();

  ControllerRuntime(const ControllerRuntime&) = delete;
  ControllerRuntime& operator=(const ControllerRuntime&) = delete;

  // --- Backend registration (before the first tick) ---------------------

  /// Registers a core::PostcardController backend: its own charge ledger,
  /// its committed FilePlan ledger (LinkDown replans walk it) and its own
  /// stats. Returns the backend id.
  int add_postcard_backend(core::PostcardOptions options = {});

  // --- Event injection (any thread) -------------------------------------

  RequestIngress& ingress() { return ingress_; }
  /// Raw queue access. A link event pushed here bypasses the checks of the
  /// helpers below; callers that hold untrusted events check them with
  /// link_event_error() first.
  EventQueue& events() { return queue_; }

  /// Link events. Each throws std::invalid_argument, and queues nothing,
  /// when the link is outside the topology or the capacity is not finite
  /// and non-negative (see link_event_error).
  void fail_link(int slot, int link) { push_link_event(slot, LinkDown{link}); }
  void restore_link(int slot, int link) { push_link_event(slot, LinkUp{link}); }
  void change_capacity(int slot, int link, double capacity) {
    push_link_event(slot, CapacityChange{link, capacity});
  }

  // --- Driving (one thread) ---------------------------------------------

  /// Processes the open slot: drains every due event in (slot, phase, seq)
  /// order until the queue closes the slot, then solves the batch on each
  /// backend in registration order and commits its plans. An arrival that
  /// loses the race against the close joins the next slot's batch.
  void tick() EXCLUDES(stats_mu_);

  /// Ticks slots [current, num_slots) and then flushes the in-flight
  /// ledger into the delivery stats.
  void run(int num_slots);

  /// Runtime analogue of sim::run_simulation: feeds every workload batch
  /// through the ingress at its slot, ticks, flushes, returns stats().
  RuntimeStats replay(const sim::WorkloadGenerator& workload);

  /// Retires every in-flight plan as delivered (valid committed plans
  /// complete by construction once no further failure can occur). Called
  /// by run(); exposed for tests that tick manually.
  void flush_in_flight();

  // --- Snapshot / restore (src/server persistence; see DESIGN.md §11) ---

  /// Captures the complete controller state — charge ledgers, committed
  /// in-flight plans, carry-over files, the slot clock, pending events and
  /// all counters — into a plain-data snapshot. Must be called from the
  /// driver thread between ticks (the server's command loop guarantees
  /// this); producers may keep submitting, any arrival racing past the
  /// capture simply lands in the post-restore queue of the NEXT snapshot.
  RuntimeSnapshot capture_snapshot() const
      EXCLUDES(stats_mu_, ledger_mu_);

  /// Restores a snapshot into a freshly constructed runtime. The topology
  /// shape and the backend registration sequence (each backend's
  /// PostcardOptions, in order) must match the captured runtime's; the
  /// runtime keeps its own RuntimeOptions. Every capacity, charge ledger and
  /// pending link event (link_event_error) must be one the runtime can
  /// apply; anything else throws std::invalid_argument before any state
  /// changes. Must run before the first tick. A restored runtime
  /// reproduces the captured run's remaining cost series bit for bit.
  void restore_snapshot(const RuntimeSnapshot& snapshot)
      EXCLUDES(stats_mu_, ledger_mu_);

  // --- Observation ------------------------------------------------------

  /// Committed, not-yet-retired plan of `file_id` on `backend`.
  /// Thread-safe (server QueryPlan sessions call this concurrently with
  /// the driver). Returns false when the file has no live plan.
  bool query_plan(int backend, int file_id, core::FilePlan* plan,
                  net::FileRequest* request = nullptr) const
      EXCLUDES(ledger_mu_);

  RuntimeStats stats() const EXCLUDES(stats_mu_);
  int num_backends() const { return static_cast<int>(backends_.size()); }
  const core::PostcardController& policy(int backend) const {
    return backends_[static_cast<std::size_t>(backend)]->controller;
  }
  /// The open slot: the one the next tick() solves. Any thread.
  int current_slot() const { return queue_.open_slot(); }
  /// Fixed at construction, so any thread may read it.
  int num_links() const { return live_topology_.num_links(); }

 private:
  struct Backend {
    Backend(net::Topology topology, core::PostcardOptions options)
        : controller(std::move(topology), options) {}

    core::PostcardController controller;
    BackendStats stats;
    // Ordered by request id on purpose: invalidate_plans walks this ledger
    // to build re-request batches (assigning synthetic ids as it goes),
    // retire_completed accumulates stats in walk order, and
    // capture_snapshot serializes it — hash order in any of those would
    // leak into committed state and break bit-for-bit replay.
    std::map<int, PlanLedgerEntry> plans;
    std::vector<net::FileRequest> replan_batch;  // re-injected this slot
    // Store-in-place carryover: files the degradation ladder deferred,
    // re-enqueued into the next slot's batch with one slot less deadline
    // slack. Per-backend (unlike the shared event queue) because each
    // backend defers independently.
    std::vector<net::FileRequest> carry_batch;
    // Ids carried INTO the current slot's batch (rebuilt by solve_slot from
    // carry_batch before consuming it): record_outcome uses this to tell a
    // repeat carry hop from a file's first entry into the carry state, so
    // chain length never re-counts a file. Driver-thread only; derived
    // state, reconstructed each slot (not snapshotted).
    std::unordered_set<int> prior_carry_ids;
  };

  /// Checks a link event against the topology (throws
  /// std::invalid_argument), then queues it.
  void push_link_event(int slot, EventPayload payload);
  void apply_capacity(int link, double capacity);
  void on_link_down(int slot, int link);
  void invalidate_plans(Backend& b, int slot, int link)
      EXCLUDES(stats_mu_, ledger_mu_);
  /// Queues `volume` stranded at `node` for replanning, or records the
  /// failure when the deadline has no slack left.
  void requeue_remainder(Backend& b, const net::FileRequest& origin, int node,
                         double volume, int deadline_slot, int slot)
      EXCLUDES(stats_mu_);
  void solve_slot(int slot, const std::vector<net::FileRequest>& arrivals)
      EXCLUDES(stats_mu_);
  void record_outcome(Backend& b, int slot,
                      const std::vector<net::FileRequest>& batch,
                      const sim::ScheduleOutcome& outcome) EXCLUDES(stats_mu_);
  void track_plans(Backend& b, int slot,
                   const std::vector<core::FilePlan>& plans,
                   const std::vector<net::FileRequest>& batch)
      EXCLUDES(ledger_mu_);
  void retire_completed(int before_slot) EXCLUDES(stats_mu_, ledger_mu_);
  bool is_synthetic(int id) const { return id >= kSyntheticIdBase; }

  static constexpr int kSyntheticIdBase = 1 << 28;

  RuntimeOptions options_;
  net::Topology live_topology_;          // capacities after events
  std::vector<double> base_capacity_;    // provisioned capacity per link
  std::vector<bool> link_down_;
  EventQueue queue_;
  RequestIngress ingress_;
  std::vector<std::unique_ptr<Backend>> backends_;
  int next_synthetic_id_ = kSyntheticIdBase;

  // Guards every Backend::plans ledger: the driver
  // mutates them while tracking, invalidating and retiring; server
  // QueryPlan sessions read them concurrently through query_plan(). Taken
  // strictly before stats_mu_ when both are needed (retire_completed).
  // Like stats_mu_'s Backend::stats contract, the per-backend halves live
  // behind unique_ptrs and are enforced by TSAN rather than the static
  // analysis.
  mutable base::Mutex ledger_mu_;

  // Also guards every Backend::stats: the driver merges under the lock,
  // stats() copies under it. (Per-backend annotation is out of clang's
  // reach — the Backends live behind unique_ptrs — so that half of the
  // contract is enforced by TSAN instead.)
  mutable base::Mutex stats_mu_;
  int slots_processed_ GUARDED_BY(stats_mu_) = 0;
  long link_events_ GUARDED_BY(stats_mu_) = 0;
  LatencyHistogram slot_latency_ GUARDED_BY(stats_mu_);
  LatencyHistogram solve_latency_ GUARDED_BY(stats_mu_);
};

}  // namespace postcard::runtime
