#include <gtest/gtest.h>

#include "flow/graph.h"
#include "flow/shortest_path.h"

namespace postcard::flow {
namespace {

TEST(FlowGraph, ArcPairsAndResiduals) {
  FlowGraph g(2);
  const int a = g.add_arc(0, 1, 10.0, 3.0);
  EXPECT_EQ(g.head(a), 1);
  EXPECT_EQ(g.tail(a), 0);
  EXPECT_DOUBLE_EQ(g.residual(a), 10.0);
  EXPECT_DOUBLE_EQ(g.residual(a ^ 1), 0.0);
  EXPECT_DOUBLE_EQ(g.cost(a ^ 1), -3.0);
  g.push(a, 4.0);
  EXPECT_DOUBLE_EQ(g.residual(a), 6.0);
  EXPECT_DOUBLE_EQ(g.residual(a ^ 1), 4.0);
  EXPECT_DOUBLE_EQ(g.flow(a), 4.0);
  g.reset_flow();
  EXPECT_DOUBLE_EQ(g.flow(a), 0.0);
}

TEST(FlowGraph, Validation) {
  FlowGraph g(2);
  EXPECT_THROW(g.add_arc(0, 2, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_arc(-1, 0, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_arc(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(FlowGraph(-1), std::invalid_argument);
}

TEST(Dijkstra, ShortestDistancesOnKnownGraph) {
  // 0 ->1 (1), 1->2 (2), 0->2 (5): dist(2) = 3 via 1.
  FlowGraph g(3);
  g.add_arc(0, 1, 1.0, 1.0);
  g.add_arc(1, 2, 1.0, 2.0);
  g.add_arc(0, 2, 1.0, 5.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.distance[0], 0.0);
  EXPECT_DOUBLE_EQ(tree.distance[1], 1.0);
  EXPECT_DOUBLE_EQ(tree.distance[2], 3.0);
  const auto path = tree_path(g, tree, 2);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(g.tail(path[0]), 0);
  EXPECT_EQ(g.head(path[0]), 1);
  EXPECT_EQ(g.head(path[1]), 2);
}

TEST(Dijkstra, IgnoresSaturatedArcs) {
  FlowGraph g(3);
  const int cheap = g.add_arc(0, 1, 1.0, 1.0);
  g.add_arc(1, 2, 5.0, 1.0);
  g.add_arc(0, 2, 5.0, 10.0);
  g.push(cheap, 1.0);  // saturate the cheap first hop
  const auto tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.distance[2], 10.0);  // must go direct
}

TEST(Dijkstra, UnreachableNodes) {
  FlowGraph g(3);
  g.add_arc(0, 1, 1.0, 1.0);
  const auto tree = dijkstra(g, 0);
  EXPECT_FALSE(tree.reached(2));
  EXPECT_TRUE(tree_path(g, tree, 2).empty());
}

}  // namespace
}  // namespace postcard::flow
