// Edge conventions of the q-th percentile recorder (Sec. II-A), pinned as
// regression tests:
//   * rank k = floor(q% * period) == 0 charges nothing — the percentile
//     lies strictly below the first sorted sample and does NOT round up to
//     the minimum busy interval;
//   * single-sample windows: k == 1 charges that sample, smaller q charges
//     zero.
#include "charging/percentile.h"

#include <gtest/gtest.h>

namespace postcard::charging {
namespace {

TEST(PercentileEdges, RankZeroChargesZero) {
  PercentileRecorder r(1);
  for (int slot = 0; slot < 10; ++slot) r.record(0, slot, 100.0 + slot);
  // q% of the period is under one whole interval: k = floor(0.009*100) = 0.
  EXPECT_EQ(r.charged_volume(0, 0.9, 100), 0.0);
  // One interval more of q and the rank reaches the implicit-zero prefix.
  EXPECT_EQ(r.charged_volume(0, 1.0, 100), 0.0);   // k=1, 90 quiet slots
  EXPECT_EQ(r.charged_volume(0, 91.0, 100), 100.0);  // first busy sample
  EXPECT_EQ(r.charged_volume(0, 100.0, 100), 109.0);
}

TEST(PercentileEdges, QZeroIsRejectedNotZeroCharged) {
  PercentileRecorder r(1);
  r.record(0, 0, 5.0);
  EXPECT_THROW(r.charged_volume(0, 0.0, 10), std::invalid_argument);
  EXPECT_THROW(r.charged_volume(0, -1.0, 10), std::invalid_argument);
  EXPECT_THROW(r.charged_volume(0, 100.5, 10), std::invalid_argument);
}

TEST(PercentileEdges, SingleSampleWindow) {
  PercentileRecorder r(2);
  r.record(0, 0, 42.0);
  // Period of exactly one interval: any q with floor(q%) == 1 charges the
  // sample — the 100th percentile of one interval is that interval.
  EXPECT_EQ(r.charged_volume(0, 100.0, 1), 42.0);
  // q < 100 over a single interval floors to rank 0: nothing to charge.
  EXPECT_EQ(r.charged_volume(0, 99.0, 1), 0.0);
  EXPECT_EQ(r.charged_volume(0, 50.0, 1), 0.0);
  // An idle link charges zero at every q regardless of the window.
  EXPECT_EQ(r.charged_volume(1, 100.0, 1), 0.0);
  // Reducing the lone sample away leaves an all-zero window, not a hole.
  r.reduce(0, 0, 42.0);
  EXPECT_EQ(r.charged_volume(0, 100.0, 1), 0.0);
  EXPECT_EQ(r.reduce_violations(), 0);
}

TEST(PercentileEdges, SingleSlotPeriodGrowsWithObservations) {
  PercentileRecorder r(1);
  r.record(0, 0, 10.0);
  EXPECT_EQ(r.num_slots(), 1);
  EXPECT_EQ(r.charged_volume(0, 100.0), 10.0);  // period defaults to num_slots
  // A shorter explicit period than observed is an error, not a truncation.
  r.record(0, 1, 20.0);
  EXPECT_THROW(r.charged_volume(0, 100.0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace postcard::charging
