// The online controller runtime: a slot-clocked, event-driven engine that
// turns the offline batch replay of src/sim into an operational service.
//
// Architecture (see DESIGN.md, "Online controller runtime"):
//
//   producers --> RequestIngress --> EventQueue <-- fail_link()/...
//                                        |
//                                  tick() driver          (single thread)
//                                        |
//                       per backend, in registration order:
//                       build batch -> schedule() -> commit plans,
//                       update in-flight ledger, record cost;
//                       LinkDown events trigger replans
//
// Threading & ownership rules:
//   * Any number of threads may call RequestIngress::submit() and the
//     event-injection helpers; they touch only the locked event queue and
//     the ingress's own capacity view.
//   * Exactly one driver thread calls tick()/run()/replay(). It owns the
//     policies, the in-flight ledger and the stats, and runs every solve
//     itself; a backend's PostcardOptions::pricing_threads may shard its
//     pricing DP, bit-identically, inside that solve.
//   * stats() may be called from any thread; it copies under the stats
//     lock which the driver takes only while merging, never while solving.
//
// Determinism guarantee: when no failure events fire and batches arrive in
// workload order, each backend receives exactly the schedule() call
// sequence that sim::run_simulation would issue, so with the watchdog
// unarmed its cost series is bit-for-bit identical to the offline replay.
// Event-driven runs (failures, chaos, pivot budgets) are reproducible for a
// fixed submission order. The one exception is slot_deadline_seconds, a
// wall-clock cut that lands on different pivots from run to run.
#pragma once

#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "core/postcard.h"
#include "flow/baseline.h"
#include "net/topology.h"
#include "runtime/event.h"
#include "runtime/ingress.h"
#include "runtime/snapshot_state.h"
#include "runtime/stats.h"
#include "sim/policy.h"
#include "sim/workload.h"

namespace postcard::runtime {

struct RuntimeOptions {
  /// Replan committed in-flight work invalidated by LinkDown events.
  bool replan_on_link_down = true;
  /// Holdings below this volume are dust and not replanned.
  double volume_epsilon = 1e-9;
  /// Slot watchdog (degradation ladder; see DESIGN.md §9). A positive
  /// pivot budget caps the total simplex pivots each backend may spend per
  /// slot — deterministic, so replays degrade identically. A positive
  /// deadline caps wall-clock seconds per slot solve (production mode; NOT
  /// deterministic, so replication refuses it). 0 disables.
  long slot_pivot_budget = 0;
  double slot_deadline_seconds = 0.0;
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

class ControllerRuntime {
 public:
  ControllerRuntime(net::Topology topology, RuntimeOptions options = {});
  ~ControllerRuntime();

  ControllerRuntime(const ControllerRuntime&) = delete;
  ControllerRuntime& operator=(const ControllerRuntime&) = delete;

  // --- Backend registration (before the first tick) ---------------------

  /// Postcard backend: LinkDown replanning via the committed FilePlan
  /// ledger. Returns the backend id.
  int add_postcard_backend(core::PostcardOptions options = {});

  /// Flow-based baseline backend: LinkDown replanning via the committed
  /// FlowAssignment ledger.
  int add_flow_backend(flow::FlowBaselineOptions options = {});

  /// Any other SchedulingPolicy: capacity events are forwarded when the
  /// policy supports them, but committed work is not replanned (the
  /// generic interface exposes no plan ledger).
  int add_backend(std::unique_ptr<sim::SchedulingPolicy> policy);

  // --- Event injection (any thread) -------------------------------------

  RequestIngress& ingress() { return ingress_; }
  EventQueue& events() { return queue_; }

  void fail_link(int slot, int link) { queue_.push(slot, LinkDown{link}); }
  void restore_link(int slot, int link) { queue_.push(slot, LinkUp{link}); }
  void change_capacity(int slot, int link, double capacity) {
    queue_.push(slot, CapacityChange{link, capacity});
  }
  /// Chaos: run `slot`'s solve under `pivot_budget` pivots (one-shot,
  /// backend -1 = all). Deterministic — replays degrade identically.
  void stall_solver(int slot, long pivot_budget, int backend = -1) {
    queue_.push(slot, SolverStall{backend, pivot_budget});
  }
  /// Chaos: skip ladder rungs at `slot` (one-shot; disable_rungs >= 1
  /// forces the greedy fallback, >= 2 forces store-in-place deferral).
  void fault_solver(int slot, int disable_rungs = 1, int backend = -1) {
    queue_.push(slot, SolverFault{backend, disable_rungs});
  }

  // --- Driving (one thread) ---------------------------------------------

  /// Processes the next slot: pushes its SlotTick, drains every due event
  /// in (slot, phase, seq) order, then solves the accumulated batch on each
  /// backend in registration order and commits its plans.
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

  /// Captures the complete controller state — charge ledgers, warm-start
  /// caches, committed in-flight plans, carry-over files, the slot clock,
  /// pending events and all counters — into a plain-data snapshot. Must be
  /// called from the driver thread between ticks (the server's command
  /// loop guarantees this); producers may keep submitting, any arrival
  /// racing past the capture simply lands in the post-restore queue of the
  /// NEXT snapshot.
  RuntimeSnapshot capture_snapshot() const
      EXCLUDES(stats_mu_, ledger_mu_);

  /// Restores a snapshot into a freshly constructed runtime. The topology
  /// shape and the backend registration sequence (kinds and names, in
  /// order) must match the captured runtime's; anything else throws
  /// std::invalid_argument and leaves the runtime unusable. Must run
  /// before the first tick. A restored runtime without a wall-clock slot
  /// deadline reproduces the captured run's remaining cost series bit for
  /// bit.
  void restore_snapshot(const RuntimeSnapshot& snapshot)
      EXCLUDES(stats_mu_, ledger_mu_);

  // --- Observation ------------------------------------------------------

  /// Committed, not-yet-retired plan of `file_id` on a Postcard backend.
  /// Thread-safe (server QueryPlan sessions call this concurrently with
  /// the driver). Returns false when the file has no live plan.
  bool query_plan(int backend, int file_id, core::FilePlan* plan,
                  net::FileRequest* request = nullptr) const
      EXCLUDES(ledger_mu_);

  RuntimeStats stats() const EXCLUDES(stats_mu_);
  int num_backends() const { return static_cast<int>(backends_.size()); }
  const sim::SchedulingPolicy& policy(int backend) const {
    return *backends_[static_cast<std::size_t>(backend)]->policy;
  }
  int current_slot() const { return next_slot_; }

 private:
  struct InFlightPlan {
    net::FileRequest request;
    int deadline_slot = 0;       // release + T, exclusive
    int last_transfer_slot = 0;  // delivery completes at the end of this slot
    core::FilePlan plan;
  };
  struct InFlightFlow {
    net::FileRequest request;
    flow::FlowAssignment assignment;
  };
  struct Backend {
    std::unique_ptr<sim::SchedulingPolicy> policy;
    core::PostcardController* postcard = nullptr;  // typed views; at most
    flow::FlowBaseline* flowbase = nullptr;        // one is non-null
    BackendStats stats;
    // Ordered by request id on purpose: invalidate_plans/invalidate_flows
    // walk these ledgers to build re-request batches (assigning synthetic
    // ids as they go), retire_completed accumulates stats in walk order,
    // and capture_snapshot serializes them — hash order in any of those
    // would leak into committed state and break bit-for-bit replay.
    std::map<int, InFlightPlan> plans;
    std::map<int, InFlightFlow> flows;
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
    // One-shot chaos overrides armed by SolverStall / SolverFault events;
    // consumed (reset) by the next solve_slot.
    long injected_stall = -1;  // pivot budget, -1 = none
    int injected_fault = 0;    // disable_rungs, 0 = none
  };

  void apply_capacity(int link, double capacity);
  void on_link_down(int slot, int link);
  void invalidate_plans(Backend& b, int slot, int link)
      EXCLUDES(stats_mu_, ledger_mu_);
  void invalidate_flows(Backend& b, int slot, int link)
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
  int next_slot_ = 0;
  int next_synthetic_id_ = kSyntheticIdBase;

  /// Adds a solve to the combined latency histogram and, when at least one
  /// master LP actually ran, to the warm/cold start-type split.
  void add_solve_latency(const sim::ScheduleOutcome& outcome, double seconds)
      REQUIRES(stats_mu_);

  // Guards every Backend::plans / Backend::flows ledger: the driver
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
  long solver_stalls_ GUARDED_BY(stats_mu_) = 0;
  long solver_faults_ GUARDED_BY(stats_mu_) = 0;
  LatencyHistogram slot_latency_ GUARDED_BY(stats_mu_);
  // Solve-latency split: solves whose first master was warm vs. cold.
  LatencyHistogram solve_latency_ GUARDED_BY(stats_mu_);
  LatencyHistogram solve_latency_warm_ GUARDED_BY(stats_mu_);
  LatencyHistogram solve_latency_cold_ GUARDED_BY(stats_mu_);
};

}  // namespace postcard::runtime
