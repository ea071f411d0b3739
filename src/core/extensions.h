// The Sec. VI extensions built on the same time-expansion approach.
//
// 1. Bulk backhaul (NetStitcher-style, objective (11)): transfer as much
//    delay-tolerant bulk data as possible using ONLY capacity that is
//    already paid for — per-slot volume on every link may not exceed the
//    current charged volume X_ij, so the transfers are free. Unlike
//    Laoutaris et al., multiple files with *different* deadlines are
//    scheduled jointly.
//
//    Note on fidelity: objective (11) as printed maximizes the total volume
//    crossing all arcs, which (with the equality conservation constraints
//    kept "the same") is either fixed or rewards circulation through
//    storage. We implement the evident intent: each file may deliver any
//    z_k in [0, F_k] and the objective maximizes total delivered volume.
//
// 2. Budget-constrained transfers: maximize delivered volume subject to a
//    per-interval cost budget sum_ij a_ij X_ij <= B (the paper's budget
//    constraint divided by the constant period length I).
#pragma once

#include <vector>

#include "charging/charge_state.h"
#include "core/formulation.h"
#include "core/plan.h"
#include "net/file_request.h"
#include "net/topology.h"

namespace postcard::core {

struct ExtensionResult {
  bool ok = false;                    // LP solved to optimality
  double delivered_total = 0.0;       // GB delivered across files
  std::vector<double> delivered;      // per file, in input order
  std::vector<FilePlan> plans;        // partial-delivery plans
  double cost_per_interval = 0.0;     // sum a_ij X_ij after the plans
  long lp_iterations = 0;
};

/// Bulk backhaul: maximize delivered volume over already-paid capacity.
/// The charge state is read, not modified — callers commit plans themselves
/// if they accept them.
ExtensionResult maximize_bulk_transfer(
    const net::Topology& topology, const charging::ChargeState& charge,
    int slot, const std::vector<net::FileRequest>& files);

/// Budget-constrained scheduling: maximize delivered volume subject to
/// sum_ij a_ij X_ij <= budget_per_interval (which must be at least the
/// current cost; otherwise the result is infeasible-by-construction and
/// ok == false).
ExtensionResult maximize_with_budget(
    const net::Topology& topology, const charging::ChargeState& charge,
    int slot, const std::vector<net::FileRequest>& files,
    double budget_per_interval);

}  // namespace postcard::core
