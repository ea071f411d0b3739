#include "net/time_expanded.h"

#include <gtest/gtest.h>

#include <cmath>

namespace postcard::net {
namespace {

Topology square() {
  // 0 -> 1 -> 2, 0 -> 2 direct.
  Topology t(3);
  t.set_link(0, 1, 5.0, 1.0);
  t.set_link(1, 2, 5.0, 2.0);
  t.set_link(0, 2, 7.0, 9.0);
  return t;
}

TEST(TimeExpandedGraph, LayerStructure) {
  const auto g = TimeExpandedGraph(square(), 3, 4);
  EXPECT_EQ(g.num_layers(), 5);
  EXPECT_EQ(g.start_slot(), 3);
  // Per transition: 3 links + 3 storage arcs.
  EXPECT_EQ(g.num_arcs(), 4 * (3 + 3));
  for (int layer = 0; layer < 4; ++layer) {
    const auto [begin, end] = g.layer_arc_range(layer);
    EXPECT_EQ(end - begin, 6);
    for (int a = begin; a < end; ++a) {
      EXPECT_EQ(g.arcs()[a].layer, layer);
    }
  }
}

TEST(TimeExpandedGraph, StorageArcsAreFreeAndUncapped) {
  const auto g = TimeExpandedGraph(square(), 0, 2);
  int storage_count = 0;
  for (const TimeArc& arc : g.arcs()) {
    if (arc.storage()) {
      ++storage_count;
      EXPECT_EQ(arc.from_node, arc.to_node);
      EXPECT_EQ(arc.link_index, -1);
      EXPECT_DOUBLE_EQ(arc.unit_cost, 0.0);
      EXPECT_TRUE(std::isinf(arc.capacity));
    }
  }
  EXPECT_EQ(storage_count, 2 * 3);
}

TEST(TimeExpandedGraph, ResidualCapacityCallbackPerSlot) {
  // Residual shrinks with the slot number: slot s leaves capacity 5 - s.
  const auto g = TimeExpandedGraph(
      square(), 2, 3, [](int /*link*/, int slot) { return 5.0 - slot; });
  for (const TimeArc& arc : g.arcs()) {
    if (!arc.storage()) {
      EXPECT_DOUBLE_EQ(arc.capacity, 5.0 - (2 + arc.layer)) << "layer " << arc.layer;
    }
  }
}

TEST(TimeExpandedGraph, NegativeResidualClampsToZero) {
  const auto g = TimeExpandedGraph(square(), 0, 1,
                                   [](int, int) { return -3.0; });
  for (const TimeArc& arc : g.arcs()) {
    if (!arc.storage()) {
      EXPECT_DOUBLE_EQ(arc.capacity, 0.0);
    }
  }
}

TEST(TimeExpandedGraph, LinkAttributesCarryOver) {
  const Topology t = square();
  const auto g = TimeExpandedGraph(t, 0, 1);
  for (const TimeArc& arc : g.arcs()) {
    if (arc.storage()) continue;
    EXPECT_DOUBLE_EQ(arc.unit_cost, t.link(arc.link_index).unit_cost);
    EXPECT_EQ(arc.from_node, t.link(arc.link_index).from);
    EXPECT_EQ(arc.to_node, t.link(arc.link_index).to);
  }
}

TEST(TimeExpandedGraph, NodeIdsAreUnique) {
  const auto g = TimeExpandedGraph(square(), 0, 3);
  std::vector<char> seen(static_cast<std::size_t>(g.num_nodes()), 0);
  for (int layer = 0; layer < g.num_layers(); ++layer) {
    for (int dc = 0; dc < g.num_datacenters(); ++dc) {
      const int id = g.node_id(dc, layer);
      ASSERT_GE(id, 0);
      ASSERT_LT(id, g.num_nodes());
      EXPECT_FALSE(seen[id]);
      seen[id] = 1;
    }
  }
}

TEST(TimeExpandedGraph, RejectsBadArguments) {
  EXPECT_THROW(TimeExpandedGraph(square(), 0, 0), std::invalid_argument);
  EXPECT_THROW(TimeExpandedGraph(square(), -1, 2), std::invalid_argument);
}

}  // namespace
}  // namespace postcard::net
