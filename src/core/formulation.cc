#include "core/formulation.h"

#include <algorithm>
#include <stdexcept>

namespace postcard::core {

TimeExpandedFormulation::TimeExpandedFormulation(
    const net::Topology& topology, const charging::ChargeState& charge,
    int slot, const std::vector<net::FileRequest>& files,
    const FormulationOptions& options)
    : topology_(topology),
      files_(files),
      slot_(slot),
      options_(options),
      graph_(topology, slot, std::max(1, net::max_deadline(files)),
             [&topology, &charge](int link, int s) {
               return std::max(0.0, topology.link(link).capacity -
                                        charge.committed(link, s));
             }) {
  if (files_.empty()) throw std::invalid_argument("empty file batch");
  for (const net::FileRequest& f : files_) {
    validate(f, topology);
    if (f.release_slot != slot) {
      throw std::invalid_argument("file release slot differs from batch slot");
    }
  }

  const int num_files = static_cast<int>(files_.size());
  const int num_arcs = graph_.num_arcs();
  const int num_nodes = topology.num_datacenters();

  // ---- Variables.
  flow_vars_.assign(num_files, std::vector<int>(num_arcs, -1));
  for (int k = 0; k < num_files; ++k) {
    const net::FileRequest& f = files_[k];
    const int deadline = f.max_transfer_slots;  // layers 0..deadline
    for (int a = 0; a < num_arcs; ++a) {
      const net::TimeArc& arc = graph_.arcs()[a];
      if (arc.layer >= deadline) continue;  // constraint (10)
      // The no-storage ablation forbids holdovers at intermediate DCs only:
      // the source can always pace its own data and the destination is the
      // file's final resting place.
      if (arc.storage() && !options_.allow_storage &&
          arc.from_node != f.source && arc.from_node != f.destination) {
        continue;
      }
      flow_vars_[k][a] = model_.add_variable(0.0, lp::kInfinity, 0.0);
    }
  }
  charge_vars_.resize(topology.num_links());
  for (int l = 0; l < topology.num_links(); ++l) {
    const double current = charge.charged(l);
    const double upper = options_.pin_charge ? current : lp::kInfinity;
    // Elastic mode maximizes delivery only; pricing X there would make a
    // unit of charge exactly cancel the delivery it enables (degenerate
    // ties), so the budget/pin constraints alone bound the charge.
    const double cost =
        options_.elastic_demand ? 0.0 : topology.link(l).unit_cost;
    charge_vars_[l] = model_.add_variable(current, upper, cost);
  }
  supply_vars_.assign(num_files, -1);
  if (options_.elastic_demand) {
    for (int k = 0; k < num_files; ++k) {
      supply_vars_[k] = model_.add_variable(0.0, files_[k].size, -1.0);
    }
  }

  // ---- Conservation (8) per file, per virtual node.
  for (int k = 0; k < num_files; ++k) {
    const net::FileRequest& f = files_[k];
    const int deadline = f.max_transfer_slots;
    std::vector<int> rows(static_cast<std::size_t>(num_nodes) * (deadline + 1));
    for (int layer = 0; layer <= deadline; ++layer) {
      for (int i = 0; i < num_nodes; ++i) {
        double rhs = 0.0;
        if (!options_.elastic_demand) {
          if (layer == 0 && i == f.source) rhs = f.size;
          if (layer == deadline && i == f.destination) rhs = -f.size;
        }
        rows[layer * num_nodes + i] = model_.add_constraint(rhs, rhs);
      }
    }
    if (options_.elastic_demand) {
      model_.add_coefficient(rows[f.source], supply_vars_[k], -1.0);
      model_.add_coefficient(rows[deadline * num_nodes + f.destination],
                             supply_vars_[k], 1.0);
    }
    for (int a = 0; a < num_arcs; ++a) {
      const int var = flow_vars_[k][a];
      if (var < 0) continue;
      const net::TimeArc& arc = graph_.arcs()[a];
      model_.add_coefficient(rows[arc.layer * num_nodes + arc.from_node], var, 1.0);
      model_.add_coefficient(rows[(arc.layer + 1) * num_nodes + arc.to_node], var,
                             -1.0);
    }
  }

  // ---- Capacity (7) and charge epigraph rows, shared across files.
  for (int a = 0; a < num_arcs; ++a) {
    const net::TimeArc& arc = graph_.arcs()[a];
    if (arc.storage()) continue;  // holdovers are free and uncapped (Sec. V)
    const int cap_row = model_.add_constraint(-lp::kInfinity, arc.capacity);
    const double committed = charge.committed(arc.link_index, slot_ + arc.layer);
    const int chg_row = model_.add_constraint(committed, lp::kInfinity);
    model_.add_coefficient(chg_row, charge_vars_[arc.link_index], 1.0);
    for (int k = 0; k < num_files; ++k) {
      const int var = flow_vars_[k][a];
      if (var < 0) continue;
      model_.add_coefficient(cap_row, var, 1.0);
      model_.add_coefficient(chg_row, var, -1.0);
    }
  }
}

std::vector<FilePlan> TimeExpandedFormulation::extract_plans(
    const lp::Solution& solution, double volume_eps) const {
  std::vector<FilePlan> plans;
  plans.reserve(files_.size());
  for (int k = 0; k < num_files(); ++k) {
    FilePlan plan;
    plan.file_id = files_[k].id;
    for (int a = 0; a < graph_.num_arcs(); ++a) {
      const int var = flow_vars_[k][a];
      if (var < 0) continue;
      const double v = solution.x[var];
      if (v > volume_eps) {
        const net::TimeArc& arc = graph_.arcs()[a];
        plan.transfers.push_back({slot_ + arc.layer, arc.from_node, arc.to_node,
                                  v, arc.link_index});
      }
    }
    std::sort(plan.transfers.begin(), plan.transfers.end(),
              [](const Transfer& a, const Transfer& b) {
                if (a.slot != b.slot) return a.slot < b.slot;
                if (a.from != b.from) return a.from < b.from;
                return a.to < b.to;
              });
    plans.push_back(std::move(plan));
  }
  return plans;
}

double TimeExpandedFormulation::delivered(const lp::Solution& solution,
                                          int file_index) const {
  if (supply_vars_[file_index] >= 0) return solution.x[supply_vars_[file_index]];
  return files_[file_index].size;
}

}  // namespace postcard::core
