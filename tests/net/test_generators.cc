#include "net/generators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "net/topology.h"

namespace postcard::net {
namespace {

double unit_cost(int, int) { return 1.0; }

/// Largest finite entry of the structural hop matrix (the diameter), or -1
/// if some ordered pair is unreachable.
int diameter(const Topology& t) {
  const std::vector<int> hops = all_pairs_hops(t);
  int best = 0;
  for (int h : hops) {
    if (h >= kUnreachableHops) return -1;
    best = std::max(best, h);
  }
  return best;
}

TEST(FatTree, NodeAndLinkCounts) {
  // k=4: 4 pods x (2 edge + 2 agg) + 4 cores = 20 sites. Per pod every edge
  // pairs with every agg (4 pairs), every agg with k/2 cores (4 pairs):
  // 8 pairs x 4 pods x 2 directions = 64 directed links.
  const Topology t4 = fat_tree(4, 100.0, unit_cost);
  EXPECT_EQ(t4.num_datacenters(), 20);
  EXPECT_EQ(t4.num_links(), 64);

  // k=10 is the 100+ DC acceptance shape: 125 sites, 1000 directed links.
  const Topology t10 = fat_tree(10, 100.0, unit_cost);
  EXPECT_EQ(t10.num_datacenters(), 125);
  EXPECT_EQ(t10.num_links(), 1000);
}

TEST(FatTree, StronglyConnectedWithDiameterFour) {
  // Worst case is edge -> agg -> core -> agg -> edge across pods.
  EXPECT_EQ(diameter(fat_tree(4, 100.0, unit_cost)), 4);
  EXPECT_EQ(diameter(fat_tree(6, 100.0, unit_cost)), 4);
}

TEST(FatTree, LinksAreBidirectionalWithUniformCapacity) {
  const Topology t = fat_tree(4, 42.0, [](int a, int b) {
    return 1.0 + 0.001 * a + 0.000001 * b;
  });
  for (int l = 0; l < t.num_links(); ++l) {
    const Link& link = t.link(l);
    EXPECT_DOUBLE_EQ(link.capacity, 42.0);
    ASSERT_TRUE(t.has_link(link.to, link.from))
        << link.from << "->" << link.to << " lacks its reverse";
    EXPECT_DOUBLE_EQ(link.unit_cost, 1.0 + 0.001 * link.from +
                                         0.000001 * link.to);
  }
}

TEST(FatTree, RejectsOddOrTinyArity) {
  EXPECT_THROW(fat_tree(3, 100.0, unit_cost), std::invalid_argument);
  EXPECT_THROW(fat_tree(0, 100.0, unit_cost), std::invalid_argument);
  EXPECT_THROW(fat_tree(-2, 100.0, unit_cost), std::invalid_argument);
}

TEST(L2Switch, CompleteBipartiteShape) {
  const Topology t = l2_switch(4, 2, 50.0, unit_cost);
  EXPECT_EQ(t.num_datacenters(), 6);
  EXPECT_EQ(t.num_links(), 16);  // 4 leaves x 2 spines x 2 directions
  // Leaf-leaf traffic transits a spine; no direct leaf-leaf links.
  const std::vector<int> hops = all_pairs_hops(t);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b) {
        EXPECT_EQ(hops[a * 6 + b], 2);
      }
    }
    for (int s = 4; s < 6; ++s) {
      EXPECT_EQ(hops[a * 6 + s], 1);
      EXPECT_EQ(hops[s * 6 + a], 1);
    }
  }
  EXPECT_EQ(hops[4 * 6 + 5], 2);  // spine-spine via a leaf
}

TEST(L2Switch, RejectsEmptyTiers) {
  EXPECT_THROW(l2_switch(0, 2, 1.0, unit_cost), std::invalid_argument);
  EXPECT_THROW(l2_switch(2, 0, 1.0, unit_cost), std::invalid_argument);
}

TEST(RandomSparse, DeterministicForFixedSeed) {
  const Topology a = random_sparse(30, 4.0, 7, 100.0, unit_cost);
  const Topology b = random_sparse(30, 4.0, 7, 100.0, unit_cost);
  ASSERT_EQ(a.num_links(), b.num_links());
  for (int l = 0; l < a.num_links(); ++l) {
    EXPECT_EQ(a.link(l).from, b.link(l).from);
    EXPECT_EQ(a.link(l).to, b.link(l).to);
  }
}

TEST(RandomSparse, DifferentSeedsDiffer) {
  const Topology a = random_sparse(30, 4.0, 7, 100.0, unit_cost);
  const Topology b = random_sparse(30, 4.0, 8, 100.0, unit_cost);
  bool differ = a.num_links() != b.num_links();
  for (int l = 0; !differ && l < a.num_links(); ++l) {
    differ = a.link(l).from != b.link(l).from || a.link(l).to != b.link(l).to;
  }
  EXPECT_TRUE(differ);
}

TEST(RandomSparse, RingGuaranteesStrongConnectivity) {
  // Even at the minimum degree the ring alone connects everything.
  EXPECT_GE(diameter(random_sparse(25, 1.0, 3, 10.0, unit_cost)), 1);
  EXPECT_GE(diameter(random_sparse(25, 5.0, 3, 10.0, unit_cost)), 1);
}

TEST(RandomSparse, HitsTargetDegree) {
  const int n = 40;
  const double avg_degree = 4.0;
  const Topology t = random_sparse(n, avg_degree, 11, 10.0, unit_cost);
  // Rejection sampling may fall slightly short of the target; it must never
  // overshoot and should land close.
  EXPECT_LE(t.num_links(), static_cast<int>(avg_degree * n));
  EXPECT_GE(t.num_links(), static_cast<int>(avg_degree * n * 0.9));
}

TEST(Adjacency, OutLinksSortedByDestination) {
  const Topology t = fat_tree(4, 10.0, unit_cost);
  int total = 0;
  for (int from = 0; from < t.num_datacenters(); ++from) {
    const std::vector<int>& out = t.out_links(from);
    total += static_cast<int>(out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(t.link(out[i]).from, from);
      if (i > 0) {
        EXPECT_LT(t.link(out[i - 1]).to, t.link(out[i]).to);
      }
    }
  }
  EXPECT_EQ(total, t.num_links());
}

}  // namespace
}  // namespace postcard::net
