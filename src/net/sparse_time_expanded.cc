#include "net/sparse_time_expanded.h"

#include <algorithm>
#include <stdexcept>

namespace postcard::net {

std::vector<int> all_pairs_hops(const Topology& topology) {
  const int n = topology.num_datacenters();
  std::vector<int> hops(static_cast<std::size_t>(n) * n, kUnreachableHops);
  std::vector<int> frontier;
  frontier.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    int* row = hops.data() + static_cast<std::size_t>(s) * n;
    row[s] = 0;
    frontier.assign(1, s);
    int depth = 0;
    while (!frontier.empty()) {
      ++depth;
      std::vector<int> next;
      for (const int u : frontier) {
        for (const int link : topology.out_links(u)) {
          const int v = topology.link(link).to;
          if (row[v] != kUnreachableHops) continue;
          row[v] = depth;
          next.push_back(v);
        }
      }
      frontier = std::move(next);
    }
  }
  return hops;
}

bool SparseTimeGraph::structure_matches(const Topology& topology) const {
  return start_slot_ >= 0 && n_ == topology.num_datacenters() &&
         num_links_ == topology.num_links();
}

void SparseTimeGraph::append_layer(const Topology& topology, int layer) {
  for (int l = 0; l < num_links_; ++l) {
    const Link& link = topology.link(l);
    arcs_.push_back({link.from, link.to, layer, l, 0.0, link.unit_cost});
  }
  for (int i = 0; i < n_; ++i) {
    arcs_.push_back({i, i, layer, -1, kStorageCapacity, 0.0});
  }
  ++layers_built_;
}

void SparseTimeGraph::advance_to(const Topology& topology, int start_slot,
                                 int horizon,
                                 const ResidualCapacityFn& residual) {
  if (horizon < 1) throw std::invalid_argument("horizon must be >= 1");
  if (start_slot < 0) throw std::invalid_argument("start slot must be >= 0");

  const bool reusable = structure_matches(topology) &&
                        start_slot >= start_slot_ &&
                        start_slot <= start_slot_ + horizon_;
  if (!reusable) {
    n_ = topology.num_datacenters();
    if (num_links_ != topology.num_links() || hops_.empty()) {
      hops_ = all_pairs_hops(topology);
    }
    num_links_ = topology.num_links();
    block_ = num_links_ + n_;
    arcs_.clear();
    arcs_.reserve(static_cast<std::size_t>(horizon) * block_);
    for (int layer = 0; layer < horizon; ++layer) append_layer(topology, layer);
  } else {
    // Retire the layers that fell out of the window: shift the survivors
    // down one block per expired layer and relabel their layer fields.
    const int shift = start_slot - start_slot_;
    if (shift > 0) {
      const std::size_t keep = arcs_.size() -
                               static_cast<std::size_t>(shift) * block_;
      std::move(arcs_.begin() + static_cast<std::ptrdiff_t>(shift) * block_,
                arcs_.end(), arcs_.begin());
      arcs_.resize(keep);
      for (TimeArc& arc : arcs_) arc.layer -= shift;
    }
    layers_reused_ += static_cast<long>(arcs_.size()) / std::max(1, block_);
    // Trim or extend the frontier to the requested horizon.
    const int have = static_cast<int>(arcs_.size()) / std::max(1, block_);
    if (have > horizon) {
      arcs_.resize(static_cast<std::size_t>(horizon) * block_);
    } else {
      arcs_.reserve(static_cast<std::size_t>(horizon) * block_);
      for (int layer = have; layer < horizon; ++layer) {
        append_layer(topology, layer);
      }
    }
  }
  start_slot_ = start_slot;
  horizon_ = horizon;

  // Residuals move with every commit, so all link capacities refresh in
  // place. Unit costs refresh too: set_link may reprice an existing link.
  for (int layer = 0; layer < horizon; ++layer) {
    TimeArc* block = arcs_.data() + static_cast<std::size_t>(layer) * block_;
    const int slot = start_slot + layer;
    for (int l = 0; l < num_links_; ++l) {
      const Link& link = topology.link(l);
      block[l].capacity =
          residual ? std::max(0.0, residual(l, slot)) : link.capacity;
      block[l].unit_cost = link.unit_cost;
    }
  }
}

}  // namespace postcard::net
