// Inter-datacenter overlay network model.
//
// Datacenters of one cloud provider are vertices; every ordered pair can hold
// a directed overlay link with a per-slot capacity (GB per time interval)
// and a unit cost a_ij (dollars per GB) charged by the transit ISPs. The
// paper's evaluation uses a complete graph; arbitrary subgraphs are supported
// (absent links simply cannot carry traffic).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace postcard::net {

/// Directed overlay link between two datacenters.
struct Link {
  int from = 0;
  int to = 0;
  double capacity = 0.0;   // GB per time interval (t-bar)
  double unit_cost = 0.0;  // cost per GB
};

class Topology {
 public:
  explicit Topology(int num_datacenters);

  /// Builds the paper's evaluation topology: a complete directed graph with
  /// uniform capacity and per-link unit costs provided by `cost_fn(i, j)`.
  static Topology complete(int num_datacenters, double capacity,
                           const std::function<double(int, int)>& cost_fn);

  /// Adds or replaces the directed link i -> j. Self-links are rejected
  /// (storage is modelled by the time-expanded graph, not the topology).
  void set_link(int from, int to, double capacity, double unit_cost);

  /// Updates the capacity of an existing link by index, keeping its unit
  /// cost. Capacity 0 models a failed link (the link still exists but can
  /// carry no traffic) — the runtime's LinkDown/LinkUp/CapacityChange
  /// events land here.
  void set_capacity(int link_index, double capacity);

  int num_datacenters() const { return n_; }
  int num_links() const { return static_cast<int>(links_.size()); }
  const std::vector<Link>& links() const { return links_; }
  const Link& link(int index) const { return links_[index]; }

  bool has_link(int from, int to) const { return link_index(from, to) >= 0; }
  /// Dense (from, to) -> link index map; -1 when the link does not exist.
  int link_index(int from, int to) const;
  double capacity(int from, int to) const;
  double unit_cost(int from, int to) const;

  /// Indices of the links leaving `from`, ordered by ascending destination.
  /// The ordering matters: shortest-path relaxations that used to scan
  /// `to = 0..n-1` against the dense index iterate this list instead and
  /// must visit candidates in the identical order to break cost ties the
  /// same way. On sparse topologies (Fat-Tree, leaf-spine) this turns the
  /// O(n) per-node scan into O(out-degree).
  const std::vector<int>& out_links(int from) const {
    return out_[static_cast<std::size_t>(from)];
  }

 private:
  int n_;
  std::vector<Link> links_;
  std::vector<int> index_;  // n*n dense map into links_
  std::vector<std::vector<int>> out_;  // per DC, link indices by ascending to
};

/// Structural all-pairs hop counts (minimum number of links on any directed
/// path, ignoring capacities); kUnreachableHops where no path exists.
/// Row-major n*n: result[from * n + to].
inline constexpr int kUnreachableHops = 1 << 29;
std::vector<int> all_pairs_hops(const Topology& topology);

}  // namespace postcard::net
