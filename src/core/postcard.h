// The Postcard online controller (Sec. III & V).
//
// At every slot t the controller receives the newly released batch K(t),
// builds the time-expanded LP (6)-(10) against the residual capacities and
// charged volumes left by all previous plans, solves it, and commits the
// resulting store-and-forward plans: the planned M^k_ij(n) volumes are
// entered into the commitment ledger (so later batches see reduced
// capacities, the "available link capacity" c_ij(t) of Sec. III) and into
// the charge state (raising X_ij where a slot's volume exceeds the previous
// maximum).
//
// The paper assumes every batch is schedulable; when a batch is not (tight
// capacities + deadlines), the controller drops the file with the largest
// required rate and retries, reporting the rejected volume.
#pragma once

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "charging/charge_state.h"
#include "core/column_generation.h"
#include "core/formulation.h"
#include "core/plan.h"
#include "lp/solver.h"
#include "net/file_request.h"
#include "net/sparse_time_expanded.h"
#include "net/topology.h"
#include "sim/policy.h"

namespace postcard::base {
class WorkerPool;
}  // namespace postcard::base

namespace postcard::core {

struct PostcardOptions {
  lp::SolverOptions lp;
  FormulationOptions formulation;  // storage knobs for the ablations
  // Solve each slot by path-based column generation (core/column_generation.h)
  // instead of the direct arc-flow LP. Identical optimum, far faster on the
  // degenerate time-expanded systems; automatically falls back to the direct
  // formulation when the storage capacity is capped (the path master has no
  // storage rows).
  bool use_column_generation = true;
  // Column-generation stopping knobs (see PathSolveOptions).
  double cg_relative_gap = 1e-4;
  int cg_stall_rounds = 30;
  // Keep a basis snapshot across slot boundaries and seed each slot's first
  // master solve from it (see MasterWarmCache). The default canonical remap
  // is trajectory-identical to a cold start — same plans bit for bit —
  // while skipping phase 1, so it is safe to leave on everywhere.
  bool warm_start = true;
  // Carry surviving row/X statuses from the cached basis instead of the
  // canonical remap (PathSolveOptions::carry_basis). Same per-slot optimum,
  // possibly a different optimal basis on degenerate masters — off by
  // default because deterministic replays must match cold-start plans.
  bool warm_start_carry_basis = false;
  // Maintain the time-expanded graph incrementally in a per-controller
  // sparse arena (net::SparseTimeGraph) with per-commodity reachability
  // pruning in pricing, instead of rebuilding the dense expansion on every
  // solve. Plans are bit-for-bit identical either way (see DESIGN.md §12);
  // the toggle exists for the equivalence tests and as a debugging aid.
  bool use_sparse_graph = true;
  // Resume the restricted master across pricing rounds on the incumbent
  // basis and factorization (PathSolveOptions::reuse_factorization): rounds
  // after the first pay neither a refactorization nor a phase 1.
  // Deterministic; safe to leave on everywhere.
  bool cg_reuse_factorization = true;
  // Seed each slot's first master with columns priced against the previous
  // slot's final duals (PathSolveOptions::dual_warm). Same per-slot optimum,
  // possibly different alternate-optimal plans — off by default because
  // deterministic replays must match the no-seed trajectory.
  bool cg_dual_warm = false;
  // Shard the pricing DP across this many persistent worker threads
  // (0 = serial). The merge is file-index-ordered, so plans are bit-for-bit
  // identical at any thread count.
  int pricing_threads = 0;
  // Insert the DCRoute single-path rung (core/dcroute.h) between the
  // truncated-CG and greedy rungs of the degradation ladder: files the
  // budget-cut master left unrouted first try one cheapest-path reservation
  // (~one DP per file) before falling to the greedy chunker. Off by default
  // to keep ladder replays against older baselines bit-for-bit.
  bool use_dcroute_rung = false;
};

class PostcardController : public sim::SchedulingPolicy {
 public:
  explicit PostcardController(net::Topology topology,
                              PostcardOptions options = PostcardOptions{});
  ~PostcardController() override;  // out of line: WorkerPool is incomplete here

  sim::ScheduleOutcome schedule(
      int slot, const std::vector<net::FileRequest>& files) override;
  double cost_per_interval() const override {
    return charge_.cost_per_interval(topology_);
  }
  const charging::ChargeState& charge_state() const override { return charge_; }
  std::string name() const override {
    return options_.formulation.allow_storage ? "postcard"
                                              : "postcard (no storage)";
  }

  /// Plans committed by the most recent schedule() call.
  const std::vector<FilePlan>& last_plans() const { return last_plans_; }

  const net::Topology& topology() const { return topology_; }

  // --- Online-runtime hooks (src/runtime) -------------------------------

  /// Live capacity override; 0 marks the link down. Future solves price
  /// against the new capacity. Committed plans are NOT revalidated here —
  /// the runtime owns invalidation and replanning (uncommit_future).
  bool set_link_capacity(int link, double capacity) override;

  /// Arms the slot watchdog: every subsequent schedule() builds a
  /// SolveBudget from these controls and walks the degradation ladder on
  /// exhaustion (full CG -> truncated CG -> greedy fallback -> deferral,
  /// reported through ScheduleOutcome::deferred_ids). With inactive
  /// controls (the default) behavior is the legacy drop-and-retry
  /// admission, bit for bit.
  bool set_solve_controls(const sim::SolveControls& controls) override {
    controls_ = controls;
    return true;
  }

  /// Arms the plan auditor: every subsequent schedule() re-verifies the
  /// committed plans against the paper invariants (src/audit) and reports
  /// through ScheduleOutcome::audit_*; kFailFast throws std::logic_error
  /// on the first violating slot.
  bool set_audit_controls(const sim::AuditControls& controls) override {
    audit_controls_ = controls;
    return true;
  }

  /// Rolls the committed tail of `plan` (transfers at slots >= from_slot)
  /// back out of the charge state — a link failure invalidated the plan
  /// before that traffic flowed.
  void uncommit_future(const FilePlan& plan, int from_slot);

  /// Snapshot restore (src/runtime capture/restore): replaces the charge
  /// ledger wholesale so a restarted controller prices future batches
  /// against exactly the committed volumes the captured one saw. Throws
  /// std::invalid_argument when the state's link count does not match the
  /// topology.
  void restore_charge_state(charging::ChargeState state) {
    if (state.num_links() != topology_.num_links()) {
      throw std::invalid_argument("charge state / topology link mismatch");
    }
    charge_ = std::move(state);
  }

  /// Cross-slot warm-start cache (diagnostics, and snapshot capture and
  /// restore in src/runtime).
  const MasterWarmCache& warm_cache() const { return warm_cache_; }
  void set_warm_cache(MasterWarmCache cache) { warm_cache_ = std::move(cache); }

 private:
  /// Attempts to schedule the whole batch. On infeasibility, fills
  /// `unroutable_ids` with the files the column-generation master could not
  /// route (empty when the direct formulation was used, which only reports
  /// infeasible/feasible). `status` reports the final master status and
  /// `truncated` whether a budget cut column generation short; a true
  /// return with non-empty `unroutable_ids` means a truncated master whose
  /// routed subset (already filtered into consistency by the caller) is
  /// commit-worthy while the listed files need the next rung.
  bool try_schedule(int slot, const std::vector<net::FileRequest>& files,
                    std::vector<FilePlan>& plans, sim::ScheduleOutcome& outcome,
                    std::vector<int>& unroutable_ids, lp::SolveBudget* budget,
                    bool* truncated, lp::SolveStatus* status);

  /// Post-commit audit of last_plans_ + the charge state (see AuditControls).
  void run_audit(int slot, const std::vector<net::FileRequest>& files,
                 sim::ScheduleOutcome& outcome) const;

  net::Topology topology_;
  PostcardOptions options_;
  charging::ChargeState charge_;
  std::vector<FilePlan> last_plans_;
  MasterWarmCache warm_cache_;
  // Persistent arena for the incremental time-expanded graph; advanced in
  // place by each solve.
  net::SparseTimeGraph sparse_graph_;
  // Pricing worker pool (pricing_threads > 0), null when pricing is serial.
  std::unique_ptr<base::WorkerPool> pricing_pool_;
  sim::SolveControls controls_;
  sim::AuditControls audit_controls_;
};

}  // namespace postcard::core
