// The Postcard LP on the time-expanded graph — problem (6)-(10) of Sec. V.
//
// Variables
//   M^k_ijn  volume of file k moved over arc i^n -> j^{n+1}   (>= 0)   (9)
//            created only for layers n < T_k, which *is* constraint (10)
//   X_ij     charged volume per link, epigraph of the max in (6), with
//            lower bound X_ij(t-1) — the monotone charge state
//   z_k      (elastic mode only) delivered volume of file k in [0, F_k]
//
// Constraints
//   capacity (7):      sum_k M^k_ijn <= residual capacity of {i,j} at slot n
//   conservation (8):  per file, per virtual node i^n — flow out at layer n
//                      equals flow in at layer n-1, with +/-F_k (or z_k) at
//                      the source/destination copies
//   charge epigraph:   X_ij >= committed_ij(n) + sum_k M^k_ijn   for all n
//
// Objective: min sum_ij a_ij X_ij (the constant period length I only scales
// the objective). The elastic mode replaces it with max sum_k z_k — the
// Sec. VI extensions — optionally pinning X to its current value (bulk
// backhaul: only already-paid volume may be used) or adding a budget row.
#pragma once

#include <vector>

#include "charging/charge_state.h"
#include "core/plan.h"
#include "lp/model.h"
#include "lp/status.h"
#include "net/file_request.h"
#include "net/time_expanded.h"
#include "net/topology.h"

namespace postcard::core {

struct FormulationOptions {
  // false forbids holdovers at *intermediate* datacenters (the ablation of
  // the paper's store-and-forward idea). A file's own source may still send
  // later and its destination accumulates early arrivals — removing those
  // self-arcs would force every path to arrive exactly at the deadline.
  bool allow_storage = true;
  bool elastic_demand = false;  // deliver z_k in [0, F_k], maximize sum z_k
  bool pin_charge = false;      // X_ij fixed at X_ij(t-1): free capacity only
};

class TimeExpandedFormulation {
 public:
  TimeExpandedFormulation(const net::Topology& topology,
                          const charging::ChargeState& charge, int slot,
                          const std::vector<net::FileRequest>& files,
                          const FormulationOptions& options);

  lp::LpModel& model() { return model_; }
  const lp::LpModel& model() const { return model_; }
  const net::TimeExpandedGraph& graph() const { return graph_; }

  /// LP variable of M^k for arc `arc` of graph(), or -1 beyond file k's
  /// deadline subgraph.
  int flow_var(int file_index, int arc) const {
    return flow_vars_[file_index][arc];
  }
  /// LP variable of X for topology link `link`.
  int charge_var(int link) const { return charge_vars_[link]; }
  /// LP variable of z_k (elastic mode only; -1 otherwise).
  int supply_var(int file_index) const { return supply_vars_[file_index]; }

  /// Reads the per-file transfer plans out of a solution.
  std::vector<FilePlan> extract_plans(const lp::Solution& solution,
                                      double volume_eps = 1e-6) const;

  /// Delivered volume of file k in an elastic solution (== F_k otherwise).
  double delivered(const lp::Solution& solution, int file_index) const;

  int num_files() const { return static_cast<int>(files_.size()); }

 private:
  const net::Topology& topology_;
  std::vector<net::FileRequest> files_;
  int slot_;
  FormulationOptions options_;
  net::TimeExpandedGraph graph_;
  lp::LpModel model_;
  std::vector<std::vector<int>> flow_vars_;  // [file][arc] -> var or -1
  std::vector<int> charge_vars_;             // [link] -> var
  std::vector<int> supply_vars_;             // [file] -> var or -1
};

}  // namespace postcard::core
