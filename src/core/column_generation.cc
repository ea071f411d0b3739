#include "core/column_generation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "lp/simplex.h"
#include "lp/stopwatch.h"
#include "net/time_expanded.h"

namespace postcard::core {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kFlowEps = 1e-7;
constexpr int kMaxRounds = 2000;       // pricing rounds before giving up
constexpr double kPricingTol = 1e-7;   // reduced-cost threshold for new columns
constexpr double kUnroutedCost = 1e6;  // big-M on z_k
constexpr double kStallTol = 1e-9;     // relative improvement that resets stalls

// FNV-style hash over a (file, arc sequence) pair for the seen-path set.
// Equality stays exact (the full key is stored), so a hash collision costs
// a comparison, never a wrong dedup verdict — and membership tests have no
// ordering for iteration to depend on.
struct PathSeenHash {
  std::size_t operator()(const std::pair<int, std::vector<int>>& p) const {
    std::size_t h =
        1469598103934665603ull ^ static_cast<std::size_t>(p.first);
    for (int a : p.second) {
      h ^= static_cast<std::size_t>(a) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
    }
    return h;
  }
};
}  // namespace

PathSolveResult solve_postcard_by_paths(const net::Topology& topology,
                                        const charging::ChargeState& charge,
                                        int slot,
                                        const std::vector<net::FileRequest>& files,
                                        const PathSolveOptions& options,
                                        lp::SolveBudget* budget,
                                        const std::vector<int>* hops) {
  PathSolveResult result;
  if (files.empty()) {
    result.ok = true;
    result.feasible = true;
    result.objective = charge.cost_per_interval(topology);
    return result;
  }
  for (const net::FileRequest& f : files) {
    validate(f, topology);
  }

  const int horizon = net::max_deadline(files);
  const net::TimeExpandedGraph graph(
      topology, slot, horizon, [&](int link, int s) {
        return std::max(0.0, topology.link(link).capacity -
                                 charge.committed(link, s));
      });
  const std::vector<net::TimeArc>& arcs = graph.arcs();
  const int n = topology.num_datacenters();
  const int num_files = static_cast<int>(files.size());
  const int num_arcs = static_cast<int>(arcs.size());

  // ---- Restricted master: X, z, and the fixed row structure.
  lp::LpModel master;
  std::vector<int> xv(topology.num_links());
  for (int l = 0; l < topology.num_links(); ++l) {
    xv[l] = master.add_variable(charge.charged(l), lp::kInfinity,
                                topology.link(l).unit_cost);
  }
  std::vector<int> zv(files.size());
  std::vector<int> demand_row(files.size());
  for (int k = 0; k < num_files; ++k) {
    zv[k] = master.add_variable(0.0, files[k].size, kUnroutedCost);
    demand_row[k] = master.add_constraint(files[k].size, files[k].size);
    master.add_coefficient(demand_row[k], zv[k], 1.0);
  }
  std::vector<int> cap_row(num_arcs, -1), chg_row(num_arcs, -1);
  for (int a = 0; a < num_arcs; ++a) {
    const net::TimeArc& arc = arcs[a];
    if (arc.storage()) continue;
    cap_row[a] = master.add_constraint(-lp::kInfinity, arc.capacity);
    chg_row[a] = master.add_constraint(
        -lp::kInfinity, -charge.committed(arc.link_index, slot + arc.layer));
    master.add_coefficient(chg_row[a], xv[arc.link_index], -1.0);
  }

  struct PathColumn {
    int var;
    int file;
    std::vector<int> arcs;
  };
  std::vector<PathColumn> columns;
  // Degenerate master duals can re-price an existing path negative without
  // any possible improvement; adding it again would loop forever.
  std::unordered_set<std::pair<int, std::vector<int>>, PathSeenHash>
      seen_paths;

  // ---- Per-commodity arc lists: what each file's pricing DP relaxes.
  //
  // A commodity is a distinct (source, destination, deadline). Its list
  // holds, layer by layer in the graph's block order, every arc of layers
  // [0, deadline) the storage rule allows (the storage ablation holds data
  // only at the endpoints); built once per solve and reused across every
  // pricing round. Without `hops` that is the full sweep.
  //
  // With `hops`, reachability pruning also drops an arc at layer L unless
  // its tail is reachable from the source within L links AND its head can
  // still reach the destination in the remaining deadline - L - 1 layers
  // (structural hops; storage does not move). Bit-for-bit safety: a
  // tail-pruned arc relaxes from a cell the DP can never make finite (dist
  // stays -inf), and head-pruned arcs only write cells that are closed
  // under forward arcs away from the destination — the reconstruction walk
  // from (destination, deadline) never enters them. Every dist/pred cell
  // the walk reads is therefore identical to the full sweep's, so the
  // generated columns (and the master, and the plans) do not change.
  std::vector<std::vector<int>> commodity_arcs;
  constexpr int kUnreachable = -1;  // no path within the deadline: skip file
  std::vector<int> file_commodity(static_cast<std::size_t>(num_files),
                                  kUnreachable);
  std::map<std::tuple<int, int, int>, int> by_commodity;
  const auto hop = [&](int from, int to) {
    return (*hops)[static_cast<std::size_t>(from) * n + to];
  };
  for (int k = 0; k < num_files; ++k) {
    const int src = files[k].source;
    const int dst = files[k].destination;
    const int deadline = files[k].max_transfer_slots;
    if (hops != nullptr && hop(src, dst) > deadline) continue;
    const auto [it, inserted] = by_commodity.try_emplace(
        {src, dst, deadline}, static_cast<int>(commodity_arcs.size()));
    file_commodity[k] = it->second;
    if (!inserted) continue;
    std::vector<int> list;
    for (int layer = 0; layer < deadline; ++layer) {
      const auto [begin, end] = graph.layer_arc_range(layer);
      const int remaining = deadline - layer - 1;
      for (int a = begin; a < end; ++a) {
        const net::TimeArc& arc = arcs[a];
        if (arc.storage() && !options.allow_storage &&
            arc.from_node != src && arc.from_node != dst) {
          continue;
        }
        if (hops != nullptr && (hop(src, arc.from_node) > layer ||
                                hop(arc.to_node, dst) > remaining)) {
          continue;
        }
        list.push_back(a);
      }
    }
    commodity_arcs.push_back(std::move(list));
  }

  // ---- Pricing data layout: structure-of-arrays over the arc blocks.
  //
  // The reduced-cost sweep is the pricing inner loop; pulling the fields
  // it reads out of the 40+-byte TimeArc records into flat arrays lets the
  // relaxation stream through memory, and pre-offsetting tails and heads
  // into the (layer, node) DP grid removes the index arithmetic from the
  // loop entirely: arc a relaxes dist[arc_tail[a]] + arc_weight[a] against
  // dist[arc_head[a]]. The weight array is filled once per pricing pass —
  // one add per arc instead of one per (arc, file).
  std::vector<int> arc_tail(num_arcs), arc_head(num_arcs), arc_from(num_arcs);
  for (int a = 0; a < num_arcs; ++a) {
    const net::TimeArc& arc = arcs[a];
    arc_tail[a] = arc.layer * n + arc.from_node;
    arc_head[a] = (arc.layer + 1) * n + arc.to_node;
    arc_from[a] = arc.from_node;
  }
  std::vector<double> arc_weight(static_cast<std::size_t>(num_arcs), 0.0);

  // DP scratch over the (layer, node) grid, sized once and reused across
  // every pricing round.
  const std::size_t grid =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(horizon + 1);
  std::vector<double> dist(grid);
  std::vector<int> pred(grid);

  // Longest-path DP for file k over its commodity's arc list against the
  // current arc_weight array. Returns the best total weight at (destination,
  // deadline), kNegInf when no path exists within the deadline.
  auto run_dp = [&](int k) {
    std::fill(dist.begin(), dist.end(), kNegInf);
    std::fill(pred.begin(), pred.end(), -1);
    dist[files[k].source] = 0.0;  // (source, layer 0)
    for (const int a : commodity_arcs[file_commodity[k]]) {
      const double from = dist[arc_tail[a]];
      if (from == kNegInf) continue;
      const double cand = from + arc_weight[a];
      if (cand > dist[arc_head[a]]) {
        dist[arc_head[a]] = cand;
        pred[arc_head[a]] = a;
      }
    }
    return dist[static_cast<std::size_t>(files[k].max_transfer_slots) * n +
                files[k].destination];
  };

  // Walks the predecessor grid back from (destination, deadline).
  auto reconstruct = [&](int k) {
    std::vector<int> path;
    int node = files[k].destination;
    int layer = files[k].max_transfer_slots;
    path.reserve(static_cast<std::size_t>(layer));
    while (layer > 0) {
      const int a = pred[static_cast<std::size_t>(layer) * n + node];
      path.push_back(a);
      node = arc_from[a];
      --layer;
    }
    std::reverse(path.begin(), path.end());
    return path;
  };

  // Adds a priced path as a master column unless the path was seen before.
  auto append_column = [&](int k, std::vector<int>&& path_arcs) {
    if (!seen_paths.insert({k, path_arcs}).second) return false;
    PathColumn col;
    col.file = k;
    col.arcs = std::move(path_arcs);
    col.var = master.add_variable(0.0, lp::kInfinity, 0.0);
    master.add_coefficient(demand_row[k], col.var, 1.0);
    for (int a : col.arcs) {
      if (cap_row[a] >= 0) {
        master.add_coefficient(cap_row[a], col.var, 1.0);
        master.add_coefficient(chg_row[a], col.var, 1.0);
      }
    }
    columns.push_back(std::move(col));
    return true;
  };

  // Round 0 starts from the solver's crash basis, on this master the
  // canonical one (see the header); later rounds resume in place.
  lp::RevisedSimplex simplex;

  // Last fully solved restricted master: optimal for its column set, hence
  // primal feasible for the slot problem (unrouted volume parked on z).
  // Plans are extracted from it, and a budget-truncated run commits it.
  lp::Solution sol;
  linalg::Vector incumbent_duals;  // duals at the best Lagrangian bound
  linalg::Vector smoothed;         // Wentges-smoothed duals, reused per alpha
  double best_objective = std::numeric_limits<double>::infinity();
  int stalled = 0;

  for (result.rounds = 0; result.rounds < kMaxRounds; ++result.rounds) {
    const lp::Stopwatch master_time;
    // Direct simplex call (no presolve): exact duals for every master row.
    // Every round after the first follows an optimal one (any other outcome
    // leaves the loop) on a master that only gained columns, so it resumes
    // in place — same basis, same LU factorization, no phase 1. resolve()
    // solves afresh from the crash basis when it cannot (an artificial
    // stayed basic).
    const bool resume = result.rounds > 0 && simplex.can_resume(master);
    lp::Solution next = result.rounds == 0 ? simplex.solve(master, budget)
                                           : simplex.resolve(master, budget);
    result.master_seconds += master_time.seconds();
    if (resume) ++result.resumed_solves;
    if (result.rounds == 0) result.warm_accepted = next.warm_started;
    result.lp_iterations += next.iterations;
    result.master_status = next.status;
    if (next.status == lp::SolveStatus::kDeadlineExceeded) {
      // Budget ran out mid-solve. The interrupted iterate may be primal
      // infeasible (a phase 1 cut short), so discard it and keep the
      // incumbent. Round-0 exhaustion has no incumbent: ok stays false and
      // the caller walks down its degradation ladder.
      if (sol.optimal()) {
        result.truncated = true;
        break;
      }
      return result;
    }
    if (!next.optimal()) return result;  // ok stays false
    sol = std::move(next);

    // ---- Pricing: per file, the path maximizing the dual arc weights under
    // the supplied duals. Returns the Lagrangian slack sum_k F_k*min(0,rc_k)
    // and appends any new (deduplicated) improving columns in ascending file
    // index.
    auto price = [&](const linalg::Vector& duals, bool* any_added) {
      const lp::Stopwatch pricing_time;
      double dual_scale = 1.0;
      for (double y : duals) dual_scale = std::max(dual_scale, std::abs(y));
      for (int a = 0; a < num_arcs; ++a) {
        arc_weight[a] =
            cap_row[a] < 0 ? 0.0 : duals[cap_row[a]] + duals[chg_row[a]];
      }
      const double threshold = -kPricingTol * dual_scale;
      double slack = 0.0;
      for (int k = 0; k < num_files; ++k) {
        if (file_commodity[k] == kUnreachable) continue;  // no path can exist
        const double best = run_dp(k);
        if (best == kNegInf) continue;  // no path within the deadline
        const double reduced_cost = -duals[demand_row[k]] - best;
        if (reduced_cost < 0.0) slack += files[k].size * reduced_cost;
        if (reduced_cost >= threshold) continue;
        if (append_column(k, reconstruct(k))) *any_added = true;
      }
      result.pricing_seconds += pricing_time.seconds();
      return slack;
    };

    // True-dual pricing drives the Lagrangian bound (valid for any duals,
    // tightest at an optimum); incumbent-smoothed pricing (Wentges) damps
    // the dual oscillation that otherwise drags out degenerate tails.
    bool added = false;
    const double slack = price(sol.duals, &added);
    const double lb = sol.objective + slack;
    if (lb > result.lower_bound) {
      result.lower_bound = lb;
      incumbent_duals = sol.duals;
    }
    if (!incumbent_duals.empty()) {
      // Several smoothing weights per round: each yields a different path
      // family, multiplying the columns gathered per master solve.
      smoothed.resize(sol.duals.size());
      for (const double alpha : {0.5, 0.8, 0.95}) {
        for (std::size_t i = 0; i < smoothed.size(); ++i) {
          smoothed[i] =
              alpha * incumbent_duals[i] + (1.0 - alpha) * sol.duals[i];
        }
        price(smoothed, &added);
      }
    }

    if (!added) break;  // no improving path anywhere: LP optimum reached
    // Budget gone between rounds: keep the just-solved (optimal) master
    // instead of letting the next solve fail at its first pivot.
    if (budget && budget->exhausted()) {
      result.truncated = true;
      ++result.rounds;
      break;
    }
    if (sol.objective - result.lower_bound <=
        options.relative_gap * (1.0 + std::abs(sol.objective))) {
      ++result.rounds;
      break;  // provably within the requested gap
    }
    // Stall detection on the monotone master objective.
    if (!std::isfinite(best_objective) ||
        sol.objective <
            best_objective - kStallTol * (1.0 + std::abs(best_objective))) {
      best_objective = sol.objective;
      stalled = 0;
    } else if (options.stall_rounds > 0 && ++stalled >= options.stall_rounds) {
      ++result.rounds;
      break;
    }
  }
  result.path_columns = static_cast<int>(columns.size());

  // ---- Extract plans and the objective.
  result.ok = true;
  result.feasible = true;
  result.unrouted.resize(files.size(), 0.0);
  for (int k = 0; k < num_files; ++k) {
    result.unrouted[k] = std::max(0.0, sol.x[zv[k]]);
    if (result.unrouted[k] > kFlowEps * (1.0 + files[k].size)) {
      result.feasible = false;
      result.unrouted_ids.push_back(files[k].id);
    }
  }
  result.objective = 0.0;
  for (int l = 0; l < topology.num_links(); ++l) {
    result.objective += topology.link(l).unit_cost * sol.x[xv[l]];
  }

  std::vector<std::map<int, double>> per_file_arc(files.size());
  for (const PathColumn& col : columns) {
    // Columns priced in after the last master solve have no entry in sol.x
    // (the gap- and stall-exits break between pricing and the next solve);
    // their flow is zero by definition.
    if (static_cast<std::size_t>(col.var) >= sol.x.size()) continue;
    const double flow = sol.x[col.var];
    if (flow <= kFlowEps) continue;
    for (int a : col.arcs) per_file_arc[col.file][a] += flow;
  }
  for (int k = 0; k < num_files; ++k) {
    FilePlan plan;
    plan.file_id = files[k].id;
    for (const auto& [a, volume] : per_file_arc[k]) {
      const net::TimeArc& arc = arcs[a];
      plan.transfers.push_back({slot + arc.layer, arc.from_node, arc.to_node,
                                volume, arc.link_index});
    }
    std::sort(plan.transfers.begin(), plan.transfers.end(),
              [](const Transfer& a, const Transfer& b) {
                if (a.slot != b.slot) return a.slot < b.slot;
                if (a.from != b.from) return a.from < b.from;
                return a.to < b.to;
              });
    result.plans.push_back(std::move(plan));
  }
  return result;
}

}  // namespace postcard::core
