// Property tests for the per-link charge ledger: under random
// record/reduce interleavings charged_volume() must equal, bit for bit, a
// rank selection over the test's own shadow ledger for every percentile and
// period, the k == 0 convention must return zero, and over-reduction must
// be counted, never silently clamped.
#include "charging/percentile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

namespace postcard::charging {
namespace {

// The shadow ledger's q-th percentile over `period` slots, by the Sec. II-A
// rank convention: quiet slots pad the series, k = floor(q% * period), and
// k == 0 charges nothing.
double shadow_percentile(std::vector<double> ledger, double q, int period) {
  const int k = static_cast<int>(std::floor(q / 100.0 * period));
  if (k == 0) return 0.0;
  ledger.resize(static_cast<std::size_t>(period), 0.0);
  std::sort(ledger.begin(), ledger.end());
  return ledger[static_cast<std::size_t>(k) - 1];
}

TEST(PercentilePropertyTest, ChargedVolumeMatchesShadowLedgerUnderRandomOps) {
  std::mt19937_64 rng(2026);
  std::uniform_int_distribution<int> link_of(0, 2);
  std::uniform_int_distribution<int> slot_of(0, 39);
  std::uniform_real_distribution<double> volume_of(0.1, 25.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const double qs[] = {5.0, 37.5, 50.0, 80.0, 95.0, 99.0, 100.0};

  for (int trial = 0; trial < 20; ++trial) {
    PercentileRecorder r(3);
    // Shadow ledger: per (link, slot) volume recorded so far, updated with
    // the recorder's own arithmetic, so reduces stay within budget (legal)
    // and every percentile of it must match the recorder's bit for bit.
    std::vector<std::vector<double>> shadow(3, std::vector<double>(40, 0.0));
    for (int op = 0; op < 300; ++op) {
      const int link = link_of(rng);
      const int slot = slot_of(rng);
      if (coin(rng) < 0.65 || shadow[link][slot] <= 0.0) {
        const double v = volume_of(rng);
        r.record(link, slot, v);
        shadow[link][slot] += v;
      } else {
        const double v =
            std::min(shadow[link][slot], volume_of(rng));
        r.reduce(link, slot, v);
        shadow[link][slot] -= v;
      }
      if (op % 25 != 0) continue;
      for (int l = 0; l < 3; ++l) {
        for (const double q : qs) {
          for (const int period : {r.num_slots(), r.num_slots() + 13, 200}) {
            if (period < r.num_slots()) continue;
            ASSERT_EQ(r.charged_volume(l, q, period),
                      shadow_percentile(shadow[l], q, period))
                << "trial " << trial << " op " << op << " link " << l
                << " q " << q << " period " << period;
          }
        }
      }
    }
    EXPECT_EQ(r.reduce_violations(), 0) << "all reduces were within budget";
  }
}

TEST(PercentilePropertyTest, MaxVolumeMatchesSeriesMaximumUnderReduces) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> slot_of(0, 19);
  std::uniform_real_distribution<double> volume_of(0.5, 10.0);
  PercentileRecorder r(1);
  std::vector<double> shadow(20, 0.0);
  for (int op = 0; op < 200; ++op) {
    const int slot = slot_of(rng);
    if (op % 3 != 2 || shadow[slot] <= 0.0) {
      const double v = volume_of(rng);
      r.record(0, slot, v);
      shadow[slot] += v;
    } else {
      const double v = std::min(shadow[slot], volume_of(rng));
      r.reduce(0, slot, v);
      shadow[slot] -= v;
    }
    const double expect =
        *std::max_element(shadow.begin(), shadow.end());
    ASSERT_DOUBLE_EQ(r.max_volume(0), expect) << "op " << op;
  }
}

TEST(PercentilePropertyTest, RankZeroChargesNothing) {
  // k = floor(q% * period) == 0: the percentile lies strictly below the
  // first sorted interval, so nothing is charged — the rank must not be
  // rounded up to the smallest busy slot.
  PercentileRecorder r(1);
  r.record(0, 0, 42.0);
  r.record(0, 1, 7.0);
  // floor(0.04 * 20) = 0.
  EXPECT_DOUBLE_EQ(r.charged_volume(0, 4.0, 20), 0.0);
  // floor(0.05 * 20) = 1: the smallest of 20 slots, 18 of which are
  // implicit zeros.
  EXPECT_DOUBLE_EQ(r.charged_volume(0, 5.0, 20), 0.0);
  // Two busy slots out of two observed: 50% charges the smaller.
  EXPECT_DOUBLE_EQ(r.charged_volume(0, 50.0, 2), 7.0);
  // q small enough that even a fully busy period rounds to rank 0.
  EXPECT_DOUBLE_EQ(r.charged_volume(0, 20.0, 2), 0.0);
}

TEST(PercentilePropertyTest, OverReductionIsCountedNotClamped) {
  PercentileRecorder r(2);
  r.record(0, 3, 5.0);
  EXPECT_EQ(r.reduce_violations(), 0);

  // Exact cancellation and epsilon-level noise are not violations.
  r.reduce(0, 3, 5.0);
  EXPECT_EQ(r.reduce_violations(), 0);
  EXPECT_DOUBLE_EQ(r.volume(0, 3), 0.0);

  // Reducing a slot that never held the volume is an accounting bug: it
  // must be reported, and the stored series stays at zero (well defined)
  // rather than going negative.
  r.record(0, 3, 2.0);
  r.reduce(0, 3, 3.0);
  EXPECT_EQ(r.reduce_violations(), 1);
  EXPECT_DOUBLE_EQ(r.volume(0, 3), 0.0);

  // A reduce against an untouched slot likewise counts.
  r.reduce(1, 0, 1.0);
  EXPECT_EQ(r.reduce_violations(), 2);
  EXPECT_DOUBLE_EQ(r.volume(1, 0), 0.0);

  // The tracker still answers queries consistently afterwards.
  r.record(0, 0, 4.0);
  EXPECT_DOUBLE_EQ(r.charged_volume(0, 100.0), 4.0);
}

}  // namespace
}  // namespace postcard::charging
