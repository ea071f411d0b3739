#include "flow/baseline.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "audit/flow_audit.h"
#include "lp/solver.h"
#include "lp/stopwatch.h"

namespace postcard::flow {

namespace {
constexpr double kRateEps = 1e-9;
}  // namespace

FlowBaseline::FlowBaseline(net::Topology topology, FlowBaselineOptions options)
    : topology_(std::move(topology)),
      options_(options),
      charge_(topology_.num_links()) {}

double FlowBaseline::residual_capacity(int link, int slot) const {
  return std::max(0.0,
                  topology_.link(link).capacity - charge_.committed(link, slot));
}

void FlowBaseline::run_audit(int slot,
                             const std::vector<net::FileRequest>& files,
                             sim::ScheduleOutcome& outcome) const {
  const lp::Stopwatch audit_time;
  std::vector<audit::PlannedFlow> planned;
  planned.reserve(last_assignments_.size());
  for (const FlowAssignment& a : last_assignments_) {
    const auto it = std::find_if(files.begin(), files.end(),
                                 [&](const net::FileRequest& f) {
                                   return f.id == a.file_id;
                                 });
    if (it == files.end()) continue;
    planned.push_back({*it, &a});
  }
  audit::AuditReport report =
      audit::audit_flow_assignments(slot, planned, topology_, charge_);
  report.merge(audit::audit_charge_state(charge_, topology_));

  ++outcome.audit_checks;
  outcome.audit_violations += static_cast<long>(report.violations.size());
  outcome.audit_seconds += audit_time.seconds();
  if (!report.ok()) {
    throw std::logic_error(name() + " slot " + std::to_string(slot) + " " +
                           report.summary());
  }
}

sim::ScheduleOutcome FlowBaseline::schedule(
    int slot, const std::vector<net::FileRequest>& files) {
  sim::ScheduleOutcome outcome;
  last_assignments_.clear();
  std::vector<net::FileRequest> batch = files;
  for (const net::FileRequest& f : batch) validate(f, topology_);

  // Drop-heaviest admission loop: shrink the batch until it fits.
  while (!batch.empty()) {
    std::vector<FlowAssignment> assignments;
    if (try_schedule(slot, batch, assignments, outcome)) {
      for (const FlowAssignment& a : assignments) {
        for (const auto& [link, rate] : a.link_rates) {
          for (int n = a.start_slot; n < a.start_slot + a.duration; ++n) {
            charge_.commit(link, n, rate);  // volume per slot == rate * tbar(=1)
          }
        }
        outcome.accepted_ids.push_back(a.file_id);
      }
      last_assignments_ = std::move(assignments);
      break;
    }
    const int drop = net::heaviest_file(batch);
    outcome.rejected_ids.push_back(batch[drop].id);
    outcome.rejected_volume += batch[drop].size;
    batch.erase(batch.begin() + drop);
  }
  if (audit_controls_.active()) run_audit(slot, files, outcome);
  return outcome;
}

bool FlowBaseline::try_schedule(int slot,
                                const std::vector<net::FileRequest>& files,
                                std::vector<FlowAssignment>& assignments,
                                sim::ScheduleOutcome& outcome) {
  const int num_files = static_cast<int>(files.size());
  const int num_links = topology_.num_links();
  const int num_nodes = topology_.num_datacenters();
  const int window = net::max_deadline(files);

  std::vector<double> rate(files.size());
  for (int k = 0; k < num_files; ++k) {
    rate[k] = files[k].size / files[k].max_transfer_slots;
  }
  auto active = [&](int k, int n) {  // is file k's flow alive during slot n?
    return n >= slot && n < slot + files[k].max_transfer_slots;
  };

  // Stage-1 rates (zero when running the exact single-LP mode).
  std::vector<std::vector<double>> f1(files.size(),
                                      std::vector<double>(num_links, 0.0));
  double lambda = 0.0;

  if (options_.two_stage) {
    // ---- Stage 1: maximum concurrent flow into free (already-paid)
    // capacity. max lambda s.t. each file routes lambda * r_k through volume
    // that neither exceeds physical residual capacity nor raises any X_ij.
    lp::LpModel m1;
    const int lam = m1.add_variable(0.0, 1.0, -1.0, "lambda");
    std::vector<int> fv(files.size() * num_links);
    for (int k = 0; k < num_files; ++k) {
      for (int l = 0; l < num_links; ++l) {
        fv[k * num_links + l] = m1.add_variable(0.0, lp::kInfinity, 0.0);
      }
    }
    for (int k = 0; k < num_files; ++k) {
      for (int i = 0; i < num_nodes; ++i) {
        const int row = m1.add_constraint(0.0, 0.0);
        for (int l = 0; l < num_links; ++l) {
          const net::Link& link = topology_.link(l);
          if (link.from == i) m1.add_coefficient(row, fv[k * num_links + l], 1.0);
          if (link.to == i) m1.add_coefficient(row, fv[k * num_links + l], -1.0);
        }
        if (i == files[k].source) m1.add_coefficient(row, lam, -rate[k]);
        if (i == files[k].destination) m1.add_coefficient(row, lam, rate[k]);
      }
    }
    for (int l = 0; l < num_links; ++l) {
      for (int n = slot; n < slot + window; ++n) {
        const double free = std::min(residual_capacity(l, n),
                                     charge_.free_headroom(l, n));
        const int row = m1.add_constraint(-lp::kInfinity, free);
        for (int k = 0; k < num_files; ++k) {
          if (active(k, n)) m1.add_coefficient(row, fv[k * num_links + l], 1.0);
        }
      }
    }
    const lp::Solution s1 = lp::solve(m1);
    outcome.lp_iterations += s1.iterations;
    ++outcome.lp_solves;
    if (!s1.optimal()) {
      // lambda=0 is always feasible here, so any failure is numerical
      // trouble — count it loudly instead of letting the admission loop
      // mask it as a capacity drop.
      ++outcome.solver_failures;
      outcome.solver_status = lp::to_string(s1.status);
      return false;
    }
    lambda = std::clamp(s1.x[lam], 0.0, 1.0);
    for (int k = 0; k < num_files; ++k) {
      for (int l = 0; l < num_links; ++l) {
        f1[k][l] = std::max(0.0, s1.x[fv[k * num_links + l]]);
      }
    }
  }

  // ---- Stage 2 (or the whole problem when two_stage == false): route the
  // residual demand minimizing the charged-volume increase.
  const double residual_fraction = 1.0 - lambda;
  lp::LpModel m2;
  std::vector<int> fv2(files.size() * num_links);
  for (int k = 0; k < num_files; ++k) {
    for (int l = 0; l < num_links; ++l) {
      fv2[k * num_links + l] = m2.add_variable(0.0, lp::kInfinity, 0.0);
    }
  }
  std::vector<int> xv(num_links);
  for (int l = 0; l < num_links; ++l) {
    xv[l] = m2.add_variable(charge_.charged(l), lp::kInfinity,
                            topology_.link(l).unit_cost);
  }
  for (int k = 0; k < num_files; ++k) {
    const double demand = residual_fraction * rate[k];
    for (int i = 0; i < num_nodes; ++i) {
      double rhs = 0.0;
      if (i == files[k].source) rhs = demand;
      if (i == files[k].destination) rhs = -demand;
      const int row = m2.add_constraint(rhs, rhs);
      for (int l = 0; l < num_links; ++l) {
        const net::Link& link = topology_.link(l);
        if (link.from == i) m2.add_coefficient(row, fv2[k * num_links + l], 1.0);
        if (link.to == i) m2.add_coefficient(row, fv2[k * num_links + l], -1.0);
      }
    }
  }
  for (int l = 0; l < num_links; ++l) {
    for (int n = slot; n < slot + window; ++n) {
      double stage1_usage = 0.0;
      for (int k = 0; k < num_files; ++k) {
        if (active(k, n)) stage1_usage += f1[k][l];
      }
      // Physical capacity left after older commitments and stage 1.
      const int cap_row = m2.add_constraint(
          -lp::kInfinity, std::max(0.0, residual_capacity(l, n) - stage1_usage));
      // Charge epigraph: X'_l >= committed + stage1 + stage2 on every slot.
      const int chg_row =
          m2.add_constraint(charge_.committed(l, n) + stage1_usage, lp::kInfinity);
      m2.add_coefficient(chg_row, xv[l], 1.0);
      for (int k = 0; k < num_files; ++k) {
        if (active(k, n)) {
          m2.add_coefficient(cap_row, fv2[k * num_links + l], 1.0);
          m2.add_coefficient(chg_row, fv2[k * num_links + l], -1.0);
        }
      }
    }
  }
  const lp::Solution s2 = lp::solve(m2);
  outcome.lp_iterations += s2.iterations;
  ++outcome.lp_solves;
  if (!s2.optimal()) {
    // Stage 2 CAN be genuinely infeasible (the batch does not fit); only a
    // non-infeasible failure is solver trouble worth a loud counter.
    if (s2.status != lp::SolveStatus::kInfeasible) {
      ++outcome.solver_failures;
      outcome.solver_status = lp::to_string(s2.status);
    }
    return false;
  }

  assignments.clear();
  for (int k = 0; k < num_files; ++k) {
    FlowAssignment a;
    a.file_id = files[k].id;
    a.rate = rate[k];
    a.start_slot = slot;
    a.duration = files[k].max_transfer_slots;
    for (int l = 0; l < num_links; ++l) {
      const double r = f1[k][l] + std::max(0.0, s2.x[fv2[k * num_links + l]]);
      if (r > kRateEps) a.link_rates.emplace_back(l, r);
    }
    assignments.push_back(std::move(a));
  }
  return true;
}

}  // namespace postcard::flow
