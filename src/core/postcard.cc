#include "core/postcard.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

// NOLINTNEXTLINE(postcard-layering: sanctioned self-audit edge — the controller re-verifies its own plans; audit/audit.h only includes downward (core/plan.h), so no cycle forms)
#include "audit/audit.h"
#include "core/column_generation.h"
#include "core/greedy.h"
#include "lp/stopwatch.h"

namespace postcard::core {

PostcardController::PostcardController(net::Topology topology,
                                       PostcardOptions options)
    : topology_(std::move(topology)),
      options_(options),
      charge_(topology_.num_links()) {
  // Snapshot images record these options, and their decoder refuses a
  // gap that is NaN, infinite or negative; refusing it here too means
  // every image a controller's runtime writes can be read back.
  if (!std::isfinite(options_.cg_relative_gap) ||
      options_.cg_relative_gap < 0.0) {
    throw std::invalid_argument(
        "cg_relative_gap must be finite and non-negative");
  }
}

void PostcardController::uncommit_future(const FilePlan& plan, int from_slot) {
  for (const Transfer& t : plan.transfers) {
    if (!t.storage() && t.slot >= from_slot) {
      charge_.uncommit(t.link, t.slot, t.volume);
    }
  }
}

sim::ScheduleOutcome PostcardController::schedule(
    int slot, const std::vector<net::FileRequest>& files) {
  sim::ScheduleOutcome outcome;
  last_plans_.clear();
  std::vector<net::FileRequest> batch = files;
  for (const net::FileRequest& f : batch) validate(f, topology_);

  // Watchdog budget for the whole slot: one SolveBudget shared by every
  // master solve and admission retry, so the slot as a whole respects the
  // limit.
  lp::SolveBudget budget = lp::SolveBudget::pivot_limit(pivot_budget_);
  lp::SolveBudget* bp = budget.limited() ? &budget : nullptr;

  // Files the LP rungs could not place; handed to the greedy rung below.
  std::vector<net::FileRequest> pending;

  while (!batch.empty()) {
    std::vector<FilePlan> plans;
    std::vector<int> unroutable;
    bool truncated = false;
    if (try_schedule(slot, batch, plans, outcome, unroutable, bp, &truncated)) {
      // Commit-worthy master solution. Under a truncated master, files the
      // incumbent left (partially) unrouted are NOT committed — a partial
      // delivery spends capacity without completing anything — they move
      // to the greedy rung instead, and dropping their flow keeps the
      // remaining plans capacity-feasible.
      if (!unroutable.empty()) {
        std::vector<FilePlan> kept;
        for (FilePlan& plan : plans) {
          if (std::find(unroutable.begin(), unroutable.end(), plan.file_id) ==
              unroutable.end()) {
            kept.push_back(std::move(plan));
          }
        }
        plans = std::move(kept);
        for (int id : unroutable) {
          const auto it = std::find_if(
              batch.begin(), batch.end(),
              [id](const net::FileRequest& f) { return f.id == id; });
          if (it != batch.end()) pending.push_back(*it);
        }
      }
      for (const FilePlan& plan : plans) {
        for (const Transfer& t : plan.transfers) {
          if (!t.storage()) charge_.commit(t.link, t.slot, t.volume);
        }
        outcome.accepted_ids.push_back(plan.file_id);
      }
      last_plans_ = std::move(plans);
      if (truncated) {
        ++outcome.rung_truncated;
      } else {
        ++outcome.rung_full;
      }
      break;
    }
    // The master failed outright: the budget ran out before round 0 was
    // optimal, or the simplex hit its iteration cap or a numerical
    // failure. None of these is a capacity verdict, so the whole batch
    // walks down to the greedy rung instead of re-running the solver.
    if (unroutable.empty()) {
      pending.insert(pending.end(), batch.begin(), batch.end());
      break;
    }
    // Admission: the master's capacity verdict names the files it could
    // not route; drop exactly those and retry with the rest.
    for (int id : unroutable) {
      const auto it = std::find_if(batch.begin(), batch.end(),
                                   [id](const net::FileRequest& f) {
                                     return f.id == id;
                                   });
      if (it == batch.end()) continue;
      outcome.rejected_ids.push_back(it->id);
      outcome.rejected_volume += it->size;
      batch.erase(it);
    }
  }

  // ---- Greedy rung: route leftovers by sequential shortest paths against
  // the live charge state (same graph, same marginal-charge arc costs).
  // Files it cannot place are deferred — neither accepted nor rejected —
  // for the runtime to carry over or fail loudly.
  GreedyOptions gopts;
  gopts.allow_storage = options_.allow_storage;
  for (const net::FileRequest& file : pending) {
    FilePlan plan;
    double gave_up = 0.0;
    const GreedyRoute r =
        greedy_route_file(topology_, gopts, file, charge_, plan, &gave_up);
    if (r == GreedyRoute::kRouted) {
      outcome.accepted_ids.push_back(file.id);
      ++outcome.rung_greedy;
      last_plans_.push_back(std::move(plan));
    } else {
      if (r == GreedyRoute::kChunkLimit) {
        ++outcome.gave_up_files;
        outcome.gave_up_volume += gave_up;
      }
      outcome.deferred_ids.push_back(file.id);
      outcome.deferred_volume += file.size;
    }
  }

  if (audit_controls_.active()) run_audit(slot, files, outcome);
  return outcome;
}

void PostcardController::run_audit(int slot,
                                   const std::vector<net::FileRequest>& files,
                                   sim::ScheduleOutcome& outcome) const {
  const lp::Stopwatch audit_time;
  std::vector<audit::PlannedFile> planned;
  planned.reserve(last_plans_.size());
  for (const FilePlan& plan : last_plans_) {
    const auto it = std::find_if(files.begin(), files.end(),
                                 [&](const net::FileRequest& f) {
                                   return f.id == plan.file_id;
                                 });
    if (it == files.end()) continue;
    planned.push_back({*it, &plan});
  }
  audit::AuditReport report =
      audit::audit_slot_plans(slot, planned, topology_, charge_);
  report.merge(audit::audit_charge_state(charge_, topology_));

  ++outcome.audit_checks;
  outcome.audit_violations += static_cast<long>(report.violations.size());
  outcome.audit_seconds += audit_time.seconds();
  if (!report.ok()) {
    throw std::logic_error(name() + " slot " + std::to_string(slot) + " " +
                           report.summary());
  }
}

bool PostcardController::try_schedule(int slot,
                                      const std::vector<net::FileRequest>& files,
                                      std::vector<FilePlan>& plans,
                                      sim::ScheduleOutcome& outcome,
                                      std::vector<int>& unroutable_ids,
                                      lp::SolveBudget* budget, bool* truncated) {
  PathSolveOptions popts;
  popts.allow_storage = options_.allow_storage;
  popts.relative_gap = options_.cg_relative_gap;
  popts.stall_rounds = options_.cg_stall_rounds;
  if (options_.prune_pricing && hops_.empty()) {
    hops_ = net::all_pairs_hops(topology_);
  }
  const PathSolveResult r = solve_postcard_by_paths(
      topology_, charge_, slot, files, popts, budget,
      options_.prune_pricing ? &hops_ : nullptr);
  outcome.lp_iterations += r.lp_iterations;
  ++outcome.lp_solves;
  outcome.pricing_seconds += r.pricing_seconds;
  outcome.master_seconds += r.master_seconds;
  outcome.resumed_solves += r.resumed_solves;
  if (r.warm_accepted) {
    ++outcome.warm_accepts;
  } else {
    ++outcome.cold_starts;
  }
  *truncated = r.truncated;
  // The path master is never infeasible (z absorbs unrouted demand), so
  // any non-optimal final status is a solver failure worth counting.
  if (r.master_status != lp::SolveStatus::kOptimal) {
    ++outcome.solver_failures;
    outcome.solver_status = lp::to_string(r.master_status);
  }
  if (!r.ok) return false;
  if (!r.feasible) {
    unroutable_ids = r.unrouted_ids;
    // A truncated master is still commit-worthy for the files it DID
    // route; the caller filters out the unroutable ones. Re-solving
    // after dropping files would just re-burn the exhausted budget.
    if (r.truncated) {
      plans = r.plans;
      return true;
    }
    return false;
  }
  plans = r.plans;
  return true;
}

}  // namespace postcard::core
