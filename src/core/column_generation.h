// Path-based Dantzig-Wolfe column generation for the Postcard LP.
//
// The arc-flow formulation (core/formulation.h) is exact but hands the
// simplex a massively degenerate conservation system: per-file flow balance
// at every virtual node stalls the iteration on >90% zero-length pivots.
// The path reformulation eliminates conservation entirely:
//
//   variables  f_p    flow on a source->destination path p through the
//                     time-expanded DAG (storage arcs included), per file
//              X_l    charged volume per link (epigraph), lb X_l(t-1)
//              z_k    unrouted volume, big-M cost (keeps the restricted
//                     master feasible; z_k > 0 at the end => infeasible)
//   rows       demand      sum_p f_p + z_k = F_k            (K rows)
//              capacity    sum_{p over (l,n)} f_p <= residual_{l,n}
//              epigraph    sum_{p over (l,n)} f_p - X_l <= -committed_{l,n}
//   objective  min sum_l a_l X_l + M sum_k z_k
//
// Pricing: a path column for file k has reduced cost
//   -sigma_k - sum_{(l,n) in p} (mu_{l,n} + nu_{l,n}),
// so the most attractive path maximizes the sum of (mu + nu) arc weights —
// a longest-path DP over the layered DAG, O(arcs) per file. Columns are
// added until no path prices negative; the result is the exact LP optimum
// of the same polytope (every DAG flow decomposes into path flows).
//
// Restrictions vs the direct formulation: elastic/pinned modes are not
// provided here (the Sec. VI extensions run at small scale on the direct
// formulation). Storage is uncapped in both, so the master needs no
// storage rows.
#pragma once

#include <vector>

#include "charging/charge_state.h"
#include "core/plan.h"
#include "lp/budget.h"
#include "lp/simplex.h"
#include "net/file_request.h"
#include "net/topology.h"

namespace postcard::core {

struct PathSolveOptions {
  bool allow_storage = true;  // mirror of FormulationOptions::allow_storage
  // Convergence: stop once the Lagrangian bound proves the master objective
  // is within this relative gap of the true LP optimum. CG objectives have a
  // long tail of vanishing improvements; the bound cuts it off with a
  // certificate instead of an arbitrary round limit.
  double relative_gap = 1e-5;
  // Secondary stop: the master objective is monotone, so a long run of
  // rounds without relative improvement means the remaining columns only
  // re-express alternative optima. 0 disables.
  int stall_rounds = 40;
};

struct PathSolveResult {
  bool ok = false;             // master solved and all demand routed
  bool feasible = false;       // z == 0 (all files fully routed)
  double objective = 0.0;      // sum a_l X_l at the optimum
  std::vector<double> unrouted;  // per file (input order): z_k volume
  // Ids of the files left unrouted, z_k > 1e-7 * (1 + F_k), in input order;
  // empty exactly when feasible.
  std::vector<int> unrouted_ids;
  std::vector<FilePlan> plans;
  long lp_iterations = 0;      // summed across master solves
  int rounds = 0;
  int path_columns = 0;
  double lower_bound = 0.0;    // Lagrangian bound on the LP optimum
  lp::SolveStatus master_status = lp::SolveStatus::kNumericalFailure;
  // A SolveBudget ran out before CG converged and the result holds the
  // incumbent restricted-master optimum instead of the full LP optimum.
  // ok is still true: the incumbent is primal feasible for the slot
  // problem (unrouted volume sits on the z columns, reported as usual).
  bool truncated = false;
  // The round-0 master ran no phase 1: the solver's crash basis (the
  // canonical one, see below) was primal feasible. False when a row the
  // crash could not repair sent it through phase 1.
  bool warm_accepted = false;
  // Hot-path split: wall time inside the pricing DP vs. inside the
  // restricted-master solves.
  double pricing_seconds = 0.0;
  double master_seconds = 0.0;
  // Master solves resumed in place (factorization kept, no phase 1).
  int resumed_solves = 0;
};

/// Solves the slot-t Postcard problem for `files` against `charge` by column
/// generation. Read-only with respect to the charge state.
///
/// Every slot's master is new (demand rows, z columns and path columns are
/// rebuilt for the batch, the capacity/epigraph rows shift with the window),
/// but its round-0 start is always the same canonical basis: each z_k basic
/// at F_k in its demand row, every other row on its own logical, X at its
/// lower bound. RevisedSimplex's singleton crash finds that basis from the
/// model alone: the demand rows are the only rows the start violates, and
/// z_k is their only column singleton. So no phase 1 runs, and a row the
/// crash cannot repair only costs a phase 1, never a different optimum.
///
/// A limited `budget` is shared by every master solve (charged per pivot)
/// and checked between pricing rounds. On exhaustion the incumbent
/// restricted-master optimum is returned with `truncated` set; exhaustion
/// before any master solved leaves ok false with kDeadlineExceeded.
///
/// Every file is priced over its commodity's arc list in one
/// net::TimeExpandedGraph of the window. With `hops` (net::all_pairs_hops
/// of `topology`), the lists are reachability-pruned: only the arcs a file
/// can traverse within its deadline window appear in its DP. Pruning
/// removes only arcs that cannot influence the DP cells the path
/// reconstruction reads, so plans — and every downstream cost series — are
/// bit-for-bit identical to the unpruned full sweep (null `hops`).
PathSolveResult solve_postcard_by_paths(const net::Topology& topology,
                                        const charging::ChargeState& charge,
                                        int slot,
                                        const std::vector<net::FileRequest>& files,
                                        const PathSolveOptions& options = {},
                                        lp::SolveBudget* budget = nullptr,
                                        const std::vector<int>* hops = nullptr);

}  // namespace postcard::core
