#include "charging/percentile.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace postcard::charging {

namespace {
// Rounding slack for reduce(): commits and uncommits of the same plan can
// disagree by accumulation error, never by a meaningful volume.
constexpr double kReduceEps = 1e-9;
}  // namespace

PercentileRecorder::PercentileRecorder(int num_links) {
  if (num_links < 0) throw std::invalid_argument("negative link count");
  series_.resize(static_cast<std::size_t>(num_links));
}

std::vector<double>& PercentileRecorder::series_through(int link, int slot) {
  auto& s = series_[link];
  if (slot >= static_cast<int>(s.size())) {
    s.resize(static_cast<std::size_t>(slot) + 1, 0.0);
  }
  return s;
}

void PercentileRecorder::record(int link, int slot, double volume) {
  if (link < 0 || link >= num_links()) throw std::out_of_range("bad link");
  if (slot < 0) throw std::out_of_range("negative slot");
  if (volume < 0.0) throw std::invalid_argument("negative volume");
  series_through(link, slot)[slot] += volume;
  num_slots_ = std::max(num_slots_, slot + 1);
}

void PercentileRecorder::reduce(int link, int slot, double volume) {
  if (link < 0 || link >= num_links()) throw std::out_of_range("bad link");
  if (slot < 0) throw std::out_of_range("negative slot");
  if (volume < 0.0) throw std::invalid_argument("negative volume");
  if (volume == 0.0) return;
  const double recorded = this->volume(link, slot);
  const double residual = recorded - volume;
  const double slack = kReduceEps * (1.0 + recorded + volume);
  if (residual < -slack) {
    // More volume uncommitted than was ever recorded: the rollback path and
    // the commit ledger disagree. Loud accounting, not a silent clamp.
    ++reduce_violations_;
  }
  if (slot >= static_cast<int>(series_[link].size())) return;  // stays zero
  series_[link][slot] = std::max(0.0, residual);
}

double PercentileRecorder::volume(int link, int slot) const {
  const auto& s = series_[link];
  if (slot < 0 || slot >= static_cast<int>(s.size())) return 0.0;
  return s[slot];
}

double PercentileRecorder::max_volume(int link) const {
  double largest = 0.0;
  for (const double v : series_[link]) largest = std::max(largest, v);
  return largest;
}

double PercentileRecorder::charged_volume(int link, double q,
                                          int period_slots) const {
  if (q <= 0.0 || q > 100.0) throw std::invalid_argument("q must be in (0, 100]");
  if (period_slots < num_slots_) {
    throw std::invalid_argument("period shorter than observed slots");
  }
  // Paper's convention (Sec. II-A): the k-th sorted interval with
  // k = q% * period; e.g. 95% of a 1-year period is the 99864-th interval.
  const int k = static_cast<int>(std::floor(q / 100.0 * period_slots));
  if (k == 0) return 0.0;
  std::vector<double> period(series_[link]);
  period.resize(static_cast<std::size_t>(period_slots), 0.0);  // quiet slots
  const auto kth = period.begin() + (k - 1);
  std::nth_element(period.begin(), kth, period.end());
  return *kth;
}

PercentileRecorder PercentileRecorder::from_series(
    std::vector<std::vector<double>> series, int num_slots,
    long reduce_violations) {
  if (num_slots < 0) throw std::invalid_argument("negative slot count");
  if (reduce_violations < 0) {
    throw std::invalid_argument("negative violation count");
  }
  for (const auto& s : series) {
    if (static_cast<int>(s.size()) > num_slots) {
      throw std::invalid_argument("series longer than the restored slot count");
    }
    for (const double v : s) {
      if (!std::isfinite(v) || v < 0.0) {
        throw std::invalid_argument("negative or non-finite series volume");
      }
    }
  }
  PercentileRecorder r(static_cast<int>(series.size()));
  r.series_ = std::move(series);
  r.num_slots_ = num_slots;
  r.reduce_violations_ = reduce_violations;
  return r;
}

void PercentileRecorder::corrupt_series_for_test(int link, int slot,
                                                 double value) {
  if (link < 0 || link >= num_links()) throw std::out_of_range("bad link");
  if (slot < 0) throw std::out_of_range("negative slot");
  series_through(link, slot)[slot] = value;
  num_slots_ = std::max(num_slots_, slot + 1);
}

}  // namespace postcard::charging
