#include "net/topology.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/file_request.h"

namespace postcard::net {
namespace {

TEST(Topology, CompleteGraphHasAllDirectedLinks) {
  const auto t = Topology::complete(4, 100.0, [](int i, int j) {
    return static_cast<double>(10 * i + j);
  });
  EXPECT_EQ(t.num_datacenters(), 4);
  EXPECT_EQ(t.num_links(), 12);  // 4 * 3 directed
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i == j) {
        EXPECT_FALSE(t.has_link(i, j));
      } else {
        EXPECT_TRUE(t.has_link(i, j));
        EXPECT_DOUBLE_EQ(t.capacity(i, j), 100.0);
        EXPECT_DOUBLE_EQ(t.unit_cost(i, j), 10.0 * i + j);
      }
    }
  }
}

TEST(Topology, AsymmetricCostsAreIndependent) {
  Topology t(2);
  t.set_link(0, 1, 10.0, 1.0);
  t.set_link(1, 0, 20.0, 9.0);
  EXPECT_DOUBLE_EQ(t.unit_cost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(t.unit_cost(1, 0), 9.0);
  EXPECT_DOUBLE_EQ(t.capacity(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(t.capacity(1, 0), 20.0);
}

TEST(Topology, SetLinkReplacesExisting) {
  Topology t(2);
  t.set_link(0, 1, 10.0, 1.0);
  t.set_link(0, 1, 50.0, 2.0);
  EXPECT_EQ(t.num_links(), 1);
  EXPECT_DOUBLE_EQ(t.capacity(0, 1), 50.0);
  EXPECT_DOUBLE_EQ(t.unit_cost(0, 1), 2.0);
}

TEST(Topology, RejectsBadLinks) {
  Topology t(3);
  EXPECT_THROW(t.set_link(0, 0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(t.set_link(-1, 0, 1.0, 1.0), std::out_of_range);
  EXPECT_THROW(t.set_link(0, 3, 1.0, 1.0), std::out_of_range);
  EXPECT_THROW(t.set_link(0, 1, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(t.set_link(0, 1, 1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(Topology(0), std::invalid_argument);
}

TEST(Topology, MissingLinkQueries) {
  Topology t(3);
  t.set_link(0, 1, 5.0, 1.0);
  EXPECT_FALSE(t.has_link(1, 0));
  EXPECT_EQ(t.link_index(1, 0), -1);
  EXPECT_DOUBLE_EQ(t.capacity(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.unit_cost(1, 0), 0.0);
  EXPECT_EQ(t.link_index(5, 0), -1);  // out of range is just "absent"
}

TEST(AllPairsHops, CountsLinksAndMarksUnreachablePairs) {
  Topology t(4);
  t.set_link(0, 1, 10.0, 1.0);
  t.set_link(1, 2, 10.0, 1.0);
  t.set_link(2, 3, 10.0, 1.0);
  std::vector<int> hops = all_pairs_hops(t);
  EXPECT_EQ(hops[0 * 4 + 3], 3);
  EXPECT_EQ(hops[3 * 4 + 0], kUnreachableHops);

  t.set_link(3, 0, 10.0, 1.0);  // closes the ring
  hops = all_pairs_hops(t);
  EXPECT_EQ(hops[3 * 4 + 0], 1);
  EXPECT_EQ(hops[3 * 4 + 1], 2);
}

TEST(AllPairsHops, CompleteGraphIsOneHopWhateverTheCapacity) {
  Topology t = Topology::complete(5, 100.0, [](int i, int j) {
    return 1.0 + 0.1 * i + 0.01 * j;
  });
  const std::vector<int> before = all_pairs_hops(t);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(before[i * 5 + j], i == j ? 0 : 1);
    }
  }
  // A downed link (capacity 0) keeps its structural hop count: pruning must
  // not change shape mid-replay, only the LP's residual capacities do.
  t.set_capacity(0, 0.0);
  EXPECT_EQ(all_pairs_hops(t), before);
}

TEST(FileRequest, ValidationCatchesBadRequests) {
  const auto t = Topology::complete(3, 10.0, [](int, int) { return 1.0; });
  FileRequest ok{0, 0, 1, 5.0, 2, 0};
  EXPECT_NO_THROW(validate(ok, t));

  FileRequest self = ok;
  self.destination = self.source;
  EXPECT_THROW(validate(self, t), std::invalid_argument);

  FileRequest outside = ok;
  outside.destination = 7;
  EXPECT_THROW(validate(outside, t), std::invalid_argument);

  FileRequest empty = ok;
  empty.size = 0.0;
  EXPECT_THROW(validate(empty, t), std::invalid_argument);

  FileRequest rushed = ok;
  rushed.max_transfer_slots = 0;
  EXPECT_THROW(validate(rushed, t), std::invalid_argument);

  FileRequest early = ok;
  early.release_slot = -1;
  EXPECT_THROW(validate(early, t), std::invalid_argument);
}

TEST(FileRequest, BatchHelpers) {
  std::vector<FileRequest> files = {
      {0, 0, 1, 30.0, 3, 0},  // rate 10
      {1, 1, 2, 50.0, 2, 0},  // rate 25 <- heaviest
      {2, 2, 0, 8.0, 8, 0},   // rate 1
  };
  EXPECT_EQ(max_deadline(files), 8);
  EXPECT_EQ(heaviest_file(files), 1);
  EXPECT_EQ(max_deadline({}), 0);
  EXPECT_EQ(heaviest_file({}), -1);
}

}  // namespace
}  // namespace postcard::net
