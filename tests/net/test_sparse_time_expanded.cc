#include "net/sparse_time_expanded.h"

#include <gtest/gtest.h>

#include "net/generators.h"
#include "net/time_expanded.h"
#include "net/topology.h"

namespace postcard::net {
namespace {

Topology five_dc() {
  return Topology::complete(5, 100.0, [](int i, int j) {
    return 1.0 + 0.1 * i + 0.01 * j;
  });
}

/// Field-for-field arc equality — the layout-parity contract every
/// bit-for-bit consumer (pricing, warm basis remap, plan extraction)
/// depends on.
void expect_matches_dense(const SparseTimeGraph& sparse,
                          const TimeExpandedGraph& dense) {
  ASSERT_EQ(sparse.num_arcs(), dense.num_arcs());
  ASSERT_EQ(sparse.num_layers(), dense.num_layers());
  ASSERT_EQ(sparse.start_slot(), dense.start_slot());
  ASSERT_EQ(sparse.num_nodes(), dense.num_nodes());
  for (int a = 0; a < dense.num_arcs(); ++a) {
    const TimeArc& s = sparse.arcs()[a];
    const TimeArc& d = dense.arcs()[a];
    ASSERT_EQ(s.from_node, d.from_node) << "arc " << a;
    ASSERT_EQ(s.to_node, d.to_node) << "arc " << a;
    ASSERT_EQ(s.layer, d.layer) << "arc " << a;
    ASSERT_EQ(s.link_index, d.link_index) << "arc " << a;
    ASSERT_EQ(s.capacity, d.capacity) << "arc " << a;  // exact, not near
    ASSERT_EQ(s.unit_cost, d.unit_cost) << "arc " << a;
  }
  for (int layer = 0; layer < dense.horizon(); ++layer) {
    EXPECT_EQ(sparse.layer_arc_range(layer), dense.layer_arc_range(layer));
  }
}

TEST(SparseTimeGraph, FreshBuildMatchesDense) {
  const Topology t = five_dc();
  SparseTimeGraph sparse;
  sparse.advance_to(t, /*start_slot=*/3, /*horizon=*/4);
  expect_matches_dense(sparse, TimeExpandedGraph(t, 3, 4));
  EXPECT_EQ(sparse.layers_built(), 4);
  EXPECT_EQ(sparse.layers_reused(), 0);
  EXPECT_EQ(sparse.block_size(), t.num_links() + t.num_datacenters());
}

TEST(SparseTimeGraph, SameSlotRefreshPicksUpCapacityChanges) {
  Topology t = five_dc();
  SparseTimeGraph sparse;
  sparse.advance_to(t, 0, 3);
  const long built_before = sparse.layers_built();

  t.set_capacity(2, 0.0);   // LinkDown
  t.set_capacity(7, 55.0);  // CapacityChange
  sparse.advance_to(t, 0, 3);
  expect_matches_dense(sparse, TimeExpandedGraph(t, 0, 3));
  // Same window: pure refresh, no structural work.
  EXPECT_EQ(sparse.layers_built(), built_before);
  EXPECT_EQ(sparse.layers_reused(), 3);
}

TEST(SparseTimeGraph, ForwardAdvanceRetiresExpiredLayers) {
  const Topology t = five_dc();
  SparseTimeGraph sparse;
  sparse.advance_to(t, 3, 4);
  sparse.advance_to(t, 5, 4);  // 2 layers expire, 2 survive, 2 appended
  expect_matches_dense(sparse, TimeExpandedGraph(t, 5, 4));
  EXPECT_EQ(sparse.layers_built(), 6);
  EXPECT_EQ(sparse.layers_reused(), 2);

  // Advancing exactly one slot at a time, as the controller does.
  for (int slot = 6; slot <= 9; ++slot) {
    sparse.advance_to(t, slot, 4);
    expect_matches_dense(sparse, TimeExpandedGraph(t, slot, 4));
  }
}

TEST(SparseTimeGraph, HorizonGrowAndShrink) {
  const Topology t = five_dc();
  SparseTimeGraph sparse;
  sparse.advance_to(t, 2, 3);
  sparse.advance_to(t, 2, 6);  // grow in place
  expect_matches_dense(sparse, TimeExpandedGraph(t, 2, 6));
  sparse.advance_to(t, 2, 2);  // shrink in place
  expect_matches_dense(sparse, TimeExpandedGraph(t, 2, 2));
  sparse.advance_to(t, 3, 5);  // advance + grow past the trimmed frontier
  expect_matches_dense(sparse, TimeExpandedGraph(t, 3, 5));
}

TEST(SparseTimeGraph, BackwardJumpRebuilds) {
  const Topology t = five_dc();
  SparseTimeGraph sparse;
  sparse.advance_to(t, 8, 3);
  sparse.advance_to(t, 2, 3);  // snapshot restore / replay rewinds the clock
  expect_matches_dense(sparse, TimeExpandedGraph(t, 2, 3));
}

TEST(SparseTimeGraph, FarForwardJumpRebuilds) {
  const Topology t = five_dc();
  SparseTimeGraph sparse;
  sparse.advance_to(t, 0, 3);
  sparse.advance_to(t, 100, 3);  // beyond the window: nothing survives
  expect_matches_dense(sparse, TimeExpandedGraph(t, 100, 3));
}

TEST(SparseTimeGraph, ResidualsRefreshEveryAdvance) {
  const Topology t = five_dc();
  int epoch = 0;
  const ResidualCapacityFn residual = [&](int link, int slot) {
    return 100.0 - 10.0 * epoch - link - slot;  // may go negative -> clamp 0
  };
  SparseTimeGraph sparse;
  for (epoch = 0; epoch < 12; ++epoch) {
    sparse.advance_to(t, epoch, 3, residual);
    expect_matches_dense(sparse, TimeExpandedGraph(t, epoch, 3, residual));
  }
}

TEST(SparseTimeGraph, LinkCountChangeRebuildsAndRefreshesHops) {
  Topology t(4);
  t.set_link(0, 1, 10.0, 1.0);
  t.set_link(1, 2, 10.0, 1.0);
  t.set_link(2, 3, 10.0, 1.0);
  SparseTimeGraph sparse;
  sparse.advance_to(t, 0, 2);
  EXPECT_EQ(sparse.hops(0, 3), 3);
  EXPECT_EQ(sparse.hops(3, 0), kUnreachableHops);

  t.set_link(3, 0, 10.0, 1.0);  // new link -> structural rebuild
  sparse.advance_to(t, 0, 2);
  expect_matches_dense(sparse, TimeExpandedGraph(t, 0, 2));
  EXPECT_EQ(sparse.hops(3, 0), 1);
  EXPECT_EQ(sparse.hops(3, 1), 2);
}

TEST(SparseTimeGraph, HopMatrixIsCapacityIndependent) {
  Topology t = five_dc();
  SparseTimeGraph sparse;
  sparse.advance_to(t, 0, 2);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(sparse.hops(i, j), i == j ? 0 : 1);
      EXPECT_EQ(sparse.hops_from(i)[j], sparse.hops(i, j));
    }
  }
  // A downed link (capacity 0) keeps its structural hop count: pruning must
  // not change shape mid-replay, only the LP's residual capacities do.
  t.set_capacity(0, 0.0);
  sparse.advance_to(t, 1, 2);
  EXPECT_EQ(sparse.hops(t.link(0).from, t.link(0).to), 1);
}

TEST(SparseTimeGraph, WorksOnGeneratedFatTree) {
  const Topology t = fat_tree(6, 100.0, [](int a, int b) {
    return 2.0 + 0.01 * a + 0.0001 * b;
  });
  SparseTimeGraph sparse;
  for (int slot = 0; slot < 4; ++slot) {
    sparse.advance_to(t, slot, 5);
    expect_matches_dense(sparse, TimeExpandedGraph(t, slot, 5));
  }
  EXPECT_EQ(sparse.layers_built(), 5 + 3);  // fresh build + one frontier/slot
}

}  // namespace
}  // namespace postcard::net
