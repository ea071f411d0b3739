// Sparse, incrementally maintained time-expanded graph (see DESIGN.md §12).
//
// TimeExpandedGraph rebuilds the whole expansion from scratch every solve:
// at 100+ datacenters and horizons of several slots that is hundreds of
// thousands of arc constructions per slot, all but one layer of which are
// identical to the previous slot's. SparseTimeGraph keeps the arcs in a
// persistent arena and advances it instead:
//
//   * same slot, shorter/equal horizon  -> capacity refresh only;
//   * slot advanced by s               -> the s expired layer blocks are
//     retired by shifting the survivors down (their layer fields decrement)
//     and the new frontier layers are appended structurally;
//   * anything else (topology reshape, slot jump backwards) -> rebuild.
//
// Residual capacities change after every commit, so every advance_to()
// refreshes all arc capacities; the incremental win is skipping the
// structural work (allocation, from/to/layer/link wiring) for surviving
// layers.
//
// Layout parity: the arena uses the exact layer-block layout of
// TimeExpandedGraph — per layer, one arc per topology link in link-index
// order, then one storage self-arc per datacenter in DC order — with the
// uniform block size B = num_links + n. Arc id = layer * B + offset. Every
// consumer that is bit-for-bit sensitive (column-generation pricing, warm
// basis remap/capture, plan extraction) therefore sees the identical arc
// sequence whether it reads a dense or a sparse graph.
//
// The graph additionally carries the structural hop matrix (all-pairs
// minimum link count, capacity-independent — a downed link keeps its hops)
// powering per-commodity reachability pruning: file k can use link l at
// layer n only if hops(source, l.from) <= n and hops(l.to, destination)
// <= T_k - n - 1. Pruned arcs provably relax nothing the full sweep's
// answer depends on, so pruning preserves the cost series bit for bit.
#pragma once

#include <utility>
#include <vector>

#include "net/time_expanded.h"
#include "net/topology.h"

namespace postcard::net {

/// Structural all-pairs hop counts (minimum number of links on any directed
/// path, ignoring capacities); kUnreachableHops where no path exists.
/// Row-major n*n: result[from * n + to].
inline constexpr int kUnreachableHops = 1 << 29;
std::vector<int> all_pairs_hops(const Topology& topology);

class SparseTimeGraph {
 public:
  SparseTimeGraph() = default;

  /// Advances the arena to cover layers [start_slot, start_slot + horizon]
  /// against `topology`, refreshing every arc's residual capacity via
  /// `residual` (null = full topology capacity). Reuses the surviving layer
  /// structure when the window moved forward; rebuilds otherwise. The hop
  /// matrix is recomputed only when the link structure changed.
  void advance_to(const Topology& topology, int start_slot, int horizon,
                  const ResidualCapacityFn& residual = nullptr);

  // --- TimeExpandedGraph-compatible read surface -------------------------
  int num_datacenters() const { return n_; }
  int start_slot() const { return start_slot_; }
  int horizon() const { return horizon_; }
  int num_layers() const { return horizon_ + 1; }
  const std::vector<TimeArc>& arcs() const { return arcs_; }
  int num_arcs() const { return static_cast<int>(arcs_.size()); }
  std::pair<int, int> layer_arc_range(int layer) const {
    return {layer * block_, (layer + 1) * block_};
  }
  int node_id(int dc, int layer) const { return layer * n_ + dc; }
  int num_nodes() const { return n_ * num_layers(); }

  // --- Sparse-specific surface -------------------------------------------
  /// Uniform per-layer arc count: num_links + n storage arcs.
  int block_size() const { return block_; }
  /// Minimum link count from `from` to `to`; kUnreachableHops if none.
  int hops(int from, int to) const {
    return hops_[static_cast<std::size_t>(from) * n_ + to];
  }
  /// Row of the hop matrix: hops_from(s)[v] == hops(s, v).
  const int* hops_from(int from) const {
    return hops_.data() + static_cast<std::size_t>(from) * n_;
  }
  /// Diagnostics: how many layer blocks the last advance_to reused intact
  /// (structure untouched, capacities refreshed in place).
  long layers_reused() const { return layers_reused_; }
  long layers_built() const { return layers_built_; }

 private:
  /// Appends layer block `layer` structurally (link capacities zeroed; the
  /// refresh pass fills them, storage arcs are uncapped for good).
  void append_layer(const Topology& topology, int layer);
  bool structure_matches(const Topology& topology) const;

  int n_ = 0;
  int num_links_ = 0;
  int block_ = 0;
  int start_slot_ = -1;  // -1 = never built
  int horizon_ = 0;
  std::vector<TimeArc> arcs_;
  std::vector<int> hops_;
  long layers_reused_ = 0;
  long layers_built_ = 0;
};

}  // namespace postcard::net
