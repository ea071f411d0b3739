// q-th percentile charging scheme (Sec. II-A).
//
// The ISP records the traffic volume a provider generates on each link in
// every 5-minute interval. At the end of the charging period the per-slot
// volumes are sorted ascending and the q-th percentile entry becomes the
// charging volume. q = 100 (the paper's simplification) charges the maximum.
//
// Each link's per-slot series is the ledger's only record: the running
// maximum and any q-percentile are read from it on demand. Nothing the
// controller decides reads a percentile below 100, so charged_volume() is
// an ex-post accounting query (the percentile ablation bench): it copies
// the series and selects the rank, O(T) per call.
#pragma once

#include <vector>

namespace postcard::charging {

class PercentileRecorder {
 public:
  /// `num_links` series are tracked; slots are appended implicitly by
  /// record() calls and missing slots count as zero traffic.
  explicit PercentileRecorder(int num_links);

  /// Adds `volume` to link `link`'s traffic during slot `slot`.
  void record(int link, int slot, double volume);

  /// Removes `volume` from link `link`'s record during `slot`. Only
  /// meaningful for *future* slots whose planned traffic never flowed — the
  /// runtime cancels the committed tail of a plan when a link failure
  /// invalidates it before execution. The subtraction is exact: a result
  /// below zero by more than a rounding epsilon means the caller uncommitted
  /// volume that was never recorded (an accounting mismatch from the
  /// rollback path); the mismatch is counted in reduce_violations() and the
  /// slot is floored at zero so downstream charging stays well defined.
  void reduce(int link, int slot, double volume);

  /// Accounting mismatches observed by reduce(): reductions that would have
  /// driven a slot's volume negative beyond rounding error. Always zero in
  /// a correct run; a nonzero value is a bug in commit/uncommit pairing.
  long reduce_violations() const { return reduce_violations_; }

  /// Number of slots observed so far (max recorded slot + 1).
  int num_slots() const { return num_slots_; }
  int num_links() const { return static_cast<int>(series_.size()); }

  /// Volume of link `link` during `slot` (zero if never recorded).
  double volume(int link, int slot) const;

  /// Largest per-slot volume recorded on `link` (zero when idle). One
  /// linear scan of the series.
  double max_volume(int link) const;

  /// Charging volume of `link` under the q-th percentile scheme, computed
  /// over `period_slots` intervals (>= num_slots(); unrecorded slots are
  /// zero-traffic, matching a mostly idle charging period). q in (0, 100].
  ///
  /// Convention (Sec. II-A): the k-th sorted interval with k = floor(q% *
  /// period); e.g. 95% of a 1-year period is the 99864-th interval. When q
  /// is small enough that q% of the period rounds down to less than one
  /// whole interval (k == 0) there is no interval to charge and the charged
  /// volume is zero — the percentile lies strictly below the first sorted
  /// sample, it does not round up to the minimum busy slot.
  double charged_volume(int link, double q, int period_slots) const;

  /// Convenience: q-th percentile over exactly the observed slots.
  double charged_volume(int link, double q) const {
    return charged_volume(link, q, num_slots_);
  }

  /// Raw per-slot series of `link` (may be shorter than num_slots() when
  /// the trailing slots never saw traffic). Snapshot capture reads this;
  /// the values are the exact doubles record()/reduce() left behind, so a
  /// restore via from_series() reproduces every future query bit for bit.
  const std::vector<double>& slot_series(int link) const {
    return series_[link];
  }

  /// Snapshot restore: rebuilds a recorder from raw per-link series.
  /// `num_slots` restores the observed slot count (it may exceed the
  /// longest series when reduce() zeroed a trailing slot) and
  /// `reduce_violations` the accounting-mismatch counter, so a restored
  /// recorder is indistinguishable from the one captured. Throws
  /// std::invalid_argument on a negative or non-finite volume or a series
  /// longer than `num_slots`.
  static PercentileRecorder from_series(std::vector<std::vector<double>> series,
                                        int num_slots, long reduce_violations);

  /// TEST ONLY: writes `value` into the raw series behind ChargeState's
  /// back, so X_ij no longer equals the series maximum. Exists so the audit
  /// mutation tests can prove the auditor's charge-consistency check
  /// detects exactly this failure mode; production code has no reason to
  /// call it.
  void corrupt_series_for_test(int link, int slot, double value);

 private:
  /// Link's series, grown with zero slots so that `slot` is stored.
  std::vector<double>& series_through(int link, int slot);

  std::vector<std::vector<double>> series_;  // [link][slot]
  int num_slots_ = 0;
  long reduce_violations_ = 0;
};

}  // namespace postcard::charging
