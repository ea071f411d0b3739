#include "net/time_expanded.h"

#include <stdexcept>

namespace postcard::net {

TimeExpandedGraph::TimeExpandedGraph(const Topology& topology, int start_slot,
                                     int horizon,
                                     const ResidualCapacityFn& residual)
    : n_(topology.num_datacenters()), start_slot_(start_slot), horizon_(horizon) {
  if (horizon < 1) throw std::invalid_argument("horizon must be >= 1");
  if (start_slot < 0) throw std::invalid_argument("start slot must be >= 0");

  layer_begin_.reserve(static_cast<std::size_t>(horizon) + 1);
  arcs_.reserve(static_cast<std::size_t>(horizon) *
                (topology.num_links() + n_));
  for (int layer = 0; layer < horizon; ++layer) {
    layer_begin_.push_back(static_cast<int>(arcs_.size()));
    const int slot = start_slot + layer;
    for (int l = 0; l < topology.num_links(); ++l) {
      const Link& link = topology.link(l);
      const double cap = residual ? residual(l, slot) : link.capacity;
      arcs_.push_back({link.from, link.to, layer, l, std::max(0.0, cap),
                       link.unit_cost});
    }
    for (int i = 0; i < n_; ++i) {
      arcs_.push_back({i, i, layer, -1, kStorageCapacity, 0.0});
    }
  }
  layer_begin_.push_back(static_cast<int>(arcs_.size()));
}

}  // namespace postcard::net
