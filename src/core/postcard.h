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
// capacities + deadlines), the controller drops the files the master could
// not route and retries, reporting the rejected volume. A master that
// cannot finish (pivot budget spent, iteration cap, numerical failure)
// walks the degradation ladder instead (DESIGN.md §9).
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "charging/charge_state.h"
#include "core/column_generation.h"
#include "core/plan.h"
#include "lp/budget.h"
#include "net/file_request.h"
#include "net/topology.h"
#include "sim/policy.h"

namespace postcard::core {

// Every slot is solved by path-based column generation
// (core/column_generation.h) over the batch's LP (6)-(10); the arc-flow
// TimeExpandedFormulation stays the reference optimum in tests and the
// small-scale base of the Sec. VI extensions.
struct PostcardOptions {
  // Store-and-forward on (the paper's Postcard) or off (the storage
  // ablation: data may wait only at its source and destination).
  bool allow_storage = true;
  // Column-generation stopping knobs (see PathSolveOptions). The gap must
  // be finite and non-negative; the controller refuses anything else.
  double cg_relative_gap = 1e-4;
  int cg_stall_rounds = 30;
  // Price each file over its reachability-pruned arc list instead of the
  // full sweep of the time-expanded graph. Plans are bit-for-bit identical
  // either way (see DESIGN.md §12); the full sweep is the reference of the
  // equivalence tests.
  bool prune_pricing = true;
};

class PostcardController : public sim::SchedulingPolicy {
 public:
  explicit PostcardController(net::Topology topology,
                              PostcardOptions options = PostcardOptions{});

  sim::ScheduleOutcome schedule(
      int slot, const std::vector<net::FileRequest>& files) override;
  double cost_per_interval() const override {
    return charge_.cost_per_interval(topology_);
  }
  const charging::ChargeState& charge_state() const override { return charge_; }
  std::string name() const override {
    return options_.allow_storage ? "postcard" : "postcard (no storage)";
  }

  const PostcardOptions& options() const { return options_; }

  /// Plans committed by the most recent schedule() call.
  const std::vector<FilePlan>& last_plans() const { return last_plans_; }

  const net::Topology& topology() const { return topology_; }

  // --- Online-runtime hooks (src/runtime) -------------------------------

  /// Live capacity override; 0 marks the link down. Future solves price
  /// against the new capacity. Committed plans are NOT revalidated here —
  /// the runtime owns invalidation and replanning (uncommit_future).
  void set_link_capacity(int link, double capacity) {
    topology_.set_capacity(link, capacity);
  }

  /// Arms the slot watchdog: every subsequent schedule() runs under an
  /// lp::SolveBudget of `max_pivots` units (negative: unlimited, the
  /// default). A count, never a clock, so a replay degrades identically.
  void set_pivot_budget(long max_pivots) { pivot_budget_ = max_pivots; }

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

 private:
  /// Attempts to schedule the whole batch. On infeasibility, fills
  /// `unroutable_ids` with the files the column-generation master could not
  /// route (empty when the master itself failed). `truncated` reports
  /// whether a budget cut column generation short; a true return with
  /// non-empty `unroutable_ids` means a truncated master whose routed subset
  /// (already filtered into consistency by the caller) is commit-worthy
  /// while the listed files need the next rung.
  bool try_schedule(int slot, const std::vector<net::FileRequest>& files,
                    std::vector<FilePlan>& plans, sim::ScheduleOutcome& outcome,
                    std::vector<int>& unroutable_ids, lp::SolveBudget* budget,
                    bool* truncated);

  /// Post-commit audit of last_plans_ + the charge state (see AuditControls).
  void run_audit(int slot, const std::vector<net::FileRequest>& files,
                 sim::ScheduleOutcome& outcome) const;

  net::Topology topology_;
  PostcardOptions options_;
  charging::ChargeState charge_;
  std::vector<FilePlan> last_plans_;
  // Structural hop matrix of topology_ (net::all_pairs_hops) for pruned
  // pricing; filled at the first pruned solve. Capacity edits never change
  // it, and the controller's link set is fixed.
  std::vector<int> hops_;
  long pivot_budget_ = -1;  // lp::SolveBudget units per slot; -1 unlimited
  sim::AuditControls audit_controls_;
};

}  // namespace postcard::core
