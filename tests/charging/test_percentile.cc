#include "charging/percentile.h"

#include <gtest/gtest.h>

namespace postcard::charging {
namespace {

TEST(PercentileRecorder, HundredthPercentileIsMaximum) {
  PercentileRecorder r(1);
  r.record(0, 0, 5.0);
  r.record(0, 1, 12.0);
  r.record(0, 2, 3.0);
  EXPECT_DOUBLE_EQ(r.charged_volume(0, 100.0), 12.0);
}

TEST(PercentileRecorder, RecordAccumulatesWithinSlot) {
  PercentileRecorder r(1);
  r.record(0, 4, 2.0);
  r.record(0, 4, 3.5);
  EXPECT_DOUBLE_EQ(r.volume(0, 4), 5.5);
  EXPECT_EQ(r.num_slots(), 5);
  EXPECT_DOUBLE_EQ(r.volume(0, 3), 0.0);  // implicit zero slot
}

TEST(PercentileRecorder, PaperIndexConvention) {
  // Sec. II-A: 95-th percentile of a year of 5-minute slots charges the
  // 99864-th sorted interval: 0.95 * 365*24*60/5 = 99864.
  const int year = 365 * 24 * 60 / 5;
  EXPECT_EQ(static_cast<int>(0.95 * year), 99864);
  // Small-scale check of the same convention: 10 slots, q=95 -> index 9
  // (1-based), i.e. the second largest.
  PercentileRecorder r(1);
  for (int s = 0; s < 10; ++s) r.record(0, s, static_cast<double>(s + 1));
  EXPECT_DOUBLE_EQ(r.charged_volume(0, 95.0), 9.0);
  EXPECT_DOUBLE_EQ(r.charged_volume(0, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(r.charged_volume(0, 10.0), 1.0);
}

TEST(PercentileRecorder, QuietSlotsInThePeriodCountAsZero) {
  PercentileRecorder r(1);
  r.record(0, 0, 10.0);
  // Over a 100-slot period with one busy slot, the 95-th percentile is 0.
  EXPECT_DOUBLE_EQ(r.charged_volume(0, 95.0, 100), 0.0);
  // ... but the 100-th percentile still catches the spike.
  EXPECT_DOUBLE_EQ(r.charged_volume(0, 100.0, 100), 10.0);
}

TEST(PercentileRecorder, PerLinkSeriesAreIndependent) {
  PercentileRecorder r(2);
  r.record(0, 0, 7.0);
  r.record(1, 0, 3.0);
  EXPECT_DOUBLE_EQ(r.charged_volume(0, 100.0), 7.0);
  EXPECT_DOUBLE_EQ(r.charged_volume(1, 100.0), 3.0);
}

TEST(PercentileRecorder, Validation) {
  PercentileRecorder r(1);
  EXPECT_THROW(r.record(1, 0, 1.0), std::out_of_range);
  EXPECT_THROW(r.record(0, -1, 1.0), std::out_of_range);
  EXPECT_THROW(r.record(0, 0, -1.0), std::invalid_argument);
  r.record(0, 5, 1.0);
  EXPECT_THROW(r.charged_volume(0, 0.0), std::invalid_argument);
  EXPECT_THROW(r.charged_volume(0, 101.0), std::invalid_argument);
  EXPECT_THROW(r.charged_volume(0, 95.0, 3), std::invalid_argument);  // period < observed
}

}  // namespace
}  // namespace postcard::charging
