#include "net/topology.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace postcard::net {

Topology::Topology(int num_datacenters) : n_(num_datacenters) {
  if (num_datacenters <= 0) {
    throw std::invalid_argument("topology needs at least one datacenter");
  }
  index_.assign(static_cast<std::size_t>(n_) * n_, -1);
  out_.resize(static_cast<std::size_t>(n_));
}

Topology Topology::complete(int num_datacenters, double capacity,
                            const std::function<double(int, int)>& cost_fn) {
  Topology t(num_datacenters);
  for (int i = 0; i < num_datacenters; ++i) {
    for (int j = 0; j < num_datacenters; ++j) {
      if (i != j) t.set_link(i, j, capacity, cost_fn(i, j));
    }
  }
  return t;
}

void Topology::set_link(int from, int to, double capacity, double unit_cost) {
  if (from < 0 || from >= n_ || to < 0 || to >= n_) {
    throw std::out_of_range("link endpoint outside topology");
  }
  if (from == to) throw std::invalid_argument("self-links are not allowed");
  if (capacity < 0.0 || unit_cost < 0.0) {
    throw std::invalid_argument("capacity and cost must be non-negative");
  }
  const int existing = index_[static_cast<std::size_t>(from) * n_ + to];
  if (existing >= 0) {
    links_[existing].capacity = capacity;
    links_[existing].unit_cost = unit_cost;
    return;
  }
  const int idx = static_cast<int>(links_.size());
  index_[static_cast<std::size_t>(from) * n_ + to] = idx;
  links_.push_back({from, to, capacity, unit_cost});
  // Keep the adjacency sorted by destination (see out_links()).
  std::vector<int>& out = out_[static_cast<std::size_t>(from)];
  const auto pos = std::upper_bound(
      out.begin(), out.end(), to,
      [this](int t, int link) { return t < links_[link].to; });
  out.insert(pos, idx);
}

void Topology::set_capacity(int link_index, double capacity) {
  if (link_index < 0 || link_index >= num_links()) {
    throw std::out_of_range("link index outside topology");
  }
  if (capacity < 0.0) throw std::invalid_argument("capacity must be non-negative");
  links_[static_cast<std::size_t>(link_index)].capacity = capacity;
}

int Topology::link_index(int from, int to) const {
  if (from < 0 || from >= n_ || to < 0 || to >= n_) return -1;
  return index_[static_cast<std::size_t>(from) * n_ + to];
}

double Topology::capacity(int from, int to) const {
  const int idx = link_index(from, to);
  return idx >= 0 ? links_[idx].capacity : 0.0;
}

double Topology::unit_cost(int from, int to) const {
  const int idx = link_index(from, to);
  return idx >= 0 ? links_[idx].unit_cost : 0.0;
}

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

}  // namespace postcard::net
