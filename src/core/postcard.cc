#include "core/postcard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

// NOLINTNEXTLINE(postcard-layering: sanctioned self-audit edge — the controller re-verifies its own plans; audit/audit.h only includes downward (core/plan.h), so no cycle forms)
#include "audit/audit.h"
#include "base/worker_pool.h"
#include "core/column_generation.h"
#include "core/dcroute.h"
#include "core/greedy.h"

namespace postcard::core {

PostcardController::PostcardController(net::Topology topology,
                                       PostcardOptions options)
    : topology_(std::move(topology)),
      options_(options),
      charge_(topology_.num_links()) {
  if (options_.formulation.elastic_demand || options_.formulation.pin_charge) {
    throw std::invalid_argument(
        "elastic/pinned formulations belong to the Sec. VI extensions, not "
        "the online controller");
  }
  if (options_.pricing_threads > 0) {
    pricing_pool_ = std::make_unique<base::WorkerPool>(options_.pricing_threads);
  }
}

PostcardController::~PostcardController() = default;

bool PostcardController::set_link_capacity(int link, double capacity) {
  topology_.set_capacity(link, capacity);
  return true;
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
  // limit. With inactive controls (`ladder` false) everything below is the
  // legacy drop-and-retry admission, bit for bit.
  const bool ladder = controls_.active();
  lp::SolveBudget budget;
  if (controls_.max_pivots >= 0) budget.set_pivot_limit(controls_.max_pivots);
  if (controls_.deadline_seconds >= 0.0) {
    budget.set_deadline_seconds(controls_.deadline_seconds);
  }
  lp::SolveBudget* bp = budget.limited() ? &budget : nullptr;

  // Files the LP rungs could not place; handed to the greedy rung below.
  std::vector<net::FileRequest> pending;

  if (ladder && controls_.disable_rungs >= 1) {
    // Injected solver fault: the CG rungs are gone before the first solve.
    ++outcome.solver_failures;
    outcome.solver_status = "fault_injected";
    pending = std::move(batch);
    batch.clear();
  }

  while (!batch.empty()) {
    std::vector<FilePlan> plans;
    std::vector<int> unroutable;
    bool truncated = false;
    lp::SolveStatus status = lp::SolveStatus::kNumericalFailure;
    if (try_schedule(slot, batch, plans, outcome, unroutable, bp, &truncated,
                     &status)) {
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
      if (ladder) {
        if (truncated) {
          ++outcome.rung_truncated;
        } else {
          ++outcome.rung_full;
        }
      }
      break;
    }
    // The master failed outright. Under the ladder, anything that is not a
    // capacity verdict (kOptimal with z > 0 reports unroutable files;
    // kInfeasible comes from the direct formulation) walks the whole batch
    // down to the greedy rung instead of re-burning the exhausted budget.
    if (ladder && unroutable.empty() &&
        status != lp::SolveStatus::kInfeasible) {
      pending.insert(pending.end(), batch.begin(), batch.end());
      batch.clear();
      break;
    }
    // Admission: drop exactly the files the relaxed master could not route
    // (known when column generation ran), otherwise fall back to dropping
    // the file with the steepest rate requirement.
    if (unroutable.empty()) {
      unroutable.push_back(batch[net::heaviest_file(batch)].id);
    }
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
  if (!pending.empty()) {
    GreedyOptions gopts;
    gopts.allow_storage = options_.formulation.allow_storage;
    DCRouteOptions dopts;
    dopts.allow_storage = options_.formulation.allow_storage;
    for (const net::FileRequest& file : pending) {
      if (controls_.disable_rungs >= 2) {
        outcome.deferred_ids.push_back(file.id);
        outcome.deferred_volume += file.size;
        continue;
      }
      // DCRoute rung: one cheapest-path reservation before the greedy
      // chunker. disable_rungs >= 2 already deferred above, so the chaos
      // semantics "only store-in-place remains" are unchanged.
      if (options_.use_dcroute_rung) {
        FilePlan dplan;
        if (dcroute_route_file(topology_, dopts, file, charge_, dplan) ==
            DCRouteResult::kRouted) {
          outcome.accepted_ids.push_back(file.id);
          ++outcome.rung_dcroute;
          last_plans_.push_back(std::move(dplan));
          continue;
        }
      }
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
  }

  if (audit_controls_.active()) run_audit(slot, files, outcome);
  return outcome;
}

void PostcardController::run_audit(int slot,
                                   const std::vector<net::FileRequest>& files,
                                   sim::ScheduleOutcome& outcome) const {
  // NOLINTNEXTLINE(postcard-determinism: wall-clock read is seconds telemetry for operator stats; it never feeds plans, ids, or serialized bytes)
  const auto t0 = std::chrono::steady_clock::now();
  audit::AuditOptions options;
  options.tolerance = audit_controls_.tolerance;
  options.check_charge_consistency = audit_controls_.check_charge_consistency;

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
      audit::audit_slot_plans(slot, planned, topology_, charge_, options);
  report.merge(audit::audit_charge_state(charge_, topology_, options));

  ++outcome.audit_checks;
  outcome.audit_violations += static_cast<long>(report.violations.size());
  for (const audit::Violation& v : report.violations) {
    if (static_cast<int>(outcome.audit_reports.size()) >=
        audit_controls_.max_reports) {
      break;
    }
    outcome.audit_reports.push_back(v.format());
  }
  outcome.audit_seconds +=
      // NOLINTNEXTLINE(postcard-determinism: wall-clock read is seconds telemetry for operator stats; it never feeds plans, ids, or serialized bytes)
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (report.ok()) return;
  if (audit_controls_.mode == sim::AuditControls::Mode::kFailFast) {
    throw std::logic_error(name() + " slot " + std::to_string(slot) + " " +
                           report.summary());
  }
  std::fprintf(stderr, "[audit] %s slot %d %s\n", name().c_str(), slot,
               report.summary().c_str());
}

bool PostcardController::try_schedule(int slot,
                                      const std::vector<net::FileRequest>& files,
                                      std::vector<FilePlan>& plans,
                                      sim::ScheduleOutcome& outcome,
                                      std::vector<int>& unroutable_ids,
                                      lp::SolveBudget* budget, bool* truncated,
                                      lp::SolveStatus* status) {
  const bool can_use_paths =
      options_.use_column_generation &&
      !std::isfinite(options_.formulation.storage_capacity);
  if (can_use_paths) {
    PathSolveOptions popts;
    popts.master_lp = options_.lp;
    popts.allow_storage = options_.formulation.allow_storage;
    popts.relative_gap = options_.cg_relative_gap;
    popts.stall_rounds = options_.cg_stall_rounds;
    popts.cross_slot_warm = options_.warm_start;
    popts.carry_basis = options_.warm_start_carry_basis;
    popts.reuse_factorization = options_.cg_reuse_factorization;
    popts.dual_warm = options_.cg_dual_warm;
    popts.pricing_pool = pricing_pool_.get();
    const PathSolveResult r = solve_postcard_by_paths(
        topology_, charge_, slot, files, popts,
        options_.warm_start || options_.cg_dual_warm ? &warm_cache_ : nullptr,
        budget, options_.use_sparse_graph ? &sparse_graph_ : nullptr);
    outcome.lp_iterations += r.lp_iterations;
    ++outcome.lp_solves;
    outcome.pricing_seconds += r.pricing_seconds;
    outcome.master_seconds += r.master_seconds;
    outcome.resumed_solves += r.resumed_solves;
    if (r.dual_warm_attempted) ++outcome.dual_warm_attempts;
    outcome.dual_seed_columns += r.dual_seed_columns;
    if (r.warm_attempted && r.warm_accepted) {
      ++outcome.warm_accepts;
    } else {
      ++outcome.cold_starts;
    }
    *status = r.master_status;
    *truncated = r.truncated;
    // The path master is never infeasible (z absorbs unrouted demand), so
    // any non-optimal final status is a solver failure worth counting.
    if (r.master_status != lp::SolveStatus::kOptimal) {
      ++outcome.solver_failures;
      outcome.solver_status = lp::to_string(r.master_status);
    }
    if (!r.ok) return false;
    if (!r.feasible) {
      for (std::size_t k = 0; k < files.size(); ++k) {
        if (r.unrouted[k] > 1e-6 * (1.0 + files[k].size)) {
          unroutable_ids.push_back(files[k].id);
        }
      }
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
  TimeExpandedFormulation formulation(topology_, charge_, slot, files,
                                      options_.formulation);
  const lp::Solution solution =
      lp::solve(formulation.model(), options_.lp, budget);
  outcome.lp_iterations += solution.iterations;
  ++outcome.lp_solves;
  ++outcome.cold_starts;  // the direct formulation has no cross-slot cache
  *status = solution.status;
  if (solution.status != lp::SolveStatus::kOptimal &&
      solution.status != lp::SolveStatus::kInfeasible) {
    ++outcome.solver_failures;
    outcome.solver_status = lp::to_string(solution.status);
  }
  if (!solution.optimal()) return false;
  plans = formulation.extract_plans(solution);
  return true;
}

}  // namespace postcard::core
