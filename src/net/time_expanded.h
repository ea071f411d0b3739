// Time-expanded graph (Sec. V).
//
// For a horizon of H transitions starting at slot t, the graph holds one
// virtual copy i^n of every datacenter per layer n in [t, t+H]. Between
// consecutive layers it holds:
//   * one arc i^n -> j^{n+1} per topology link {i,j}, carrying the link's
//     residual capacity at slot n and its unit cost a_ij, and
//   * one storage arc i^n -> i^{n+1} per datacenter, with infinite
//     capacity and zero cost — the "holdover" M_ii(n).
//
// The per-slot residual capacity is supplied by a callback so the online
// controller can subtract volumes already committed by earlier plans
// (the "available link capacity at time t" of Sec. III).
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "net/topology.h"

namespace postcard::net {

/// Residual capacity (GB) of topology link `link_index` during slot `slot`.
using ResidualCapacityFn = std::function<double(int link_index, int slot)>;

/// Capacity of every storage arc: holdovers are free and uncapped (Sec. V).
inline constexpr double kStorageCapacity =
    std::numeric_limits<double>::infinity();

struct TimeArc {
  int from_node = 0;       // datacenter index at layer `layer`
  int to_node = 0;         // datacenter index at layer `layer + 1`
  int layer = 0;           // offset from start slot: 0 .. horizon-1
  int link_index = -1;     // topology link, or -1 for a storage arc
  double capacity = 0.0;   // GB transferable during this slot
  double unit_cost = 0.0;  // 0 for storage arcs
  bool storage() const { return link_index < 0; }
};

class TimeExpandedGraph {
 public:
  /// Builds the expansion over `horizon` layer transitions starting at
  /// absolute slot `start_slot`. `residual` may be null, in which case each
  /// arc carries the full topology capacity.
  TimeExpandedGraph(const Topology& topology, int start_slot, int horizon,
                    const ResidualCapacityFn& residual = nullptr);

  int num_datacenters() const { return n_; }
  int start_slot() const { return start_slot_; }
  int horizon() const { return horizon_; }
  int num_layers() const { return horizon_ + 1; }

  const std::vector<TimeArc>& arcs() const { return arcs_; }
  int num_arcs() const { return static_cast<int>(arcs_.size()); }

  /// Arcs departing layer `layer` (0-based offset); contiguous range.
  std::pair<int, int> layer_arc_range(int layer) const {
    return {layer_begin_[layer], layer_begin_[layer + 1]};
  }

  /// Node id of datacenter `dc` at layer offset `layer` (for flow algorithms
  /// that want a flat node numbering).
  int node_id(int dc, int layer) const { return layer * n_ + dc; }
  int num_nodes() const { return n_ * num_layers(); }

 private:
  int n_;
  int start_slot_;
  int horizon_;
  std::vector<TimeArc> arcs_;
  std::vector<int> layer_begin_;
};

}  // namespace postcard::net
