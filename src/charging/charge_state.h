// Per-link charged-volume state X_ij(t) under 100-th percentile charging.
//
// Once a link has carried volume X during some slot, every later slot can
// re-use up to X for free — the foundation of Postcard's time-shifting. The
// state tracks, per link, the committed volume of every slot (the ledger the
// online controller prices against) and the running maximum X_ij(t). The
// cost is linear in the charge, sum_ij a_ij * X_ij (objective (6)).
#pragma once

#include <vector>

#include "charging/percentile.h"
#include "net/topology.h"

namespace postcard::charging {

class ChargeState {
 public:
  explicit ChargeState(int num_links);

  /// Commits `volume` GB on `link` during `slot` (accumulates).
  void commit(int link, int slot, double volume);

  /// Cancels up to `volume` GB previously committed on `link` during
  /// `slot` and recomputes X_ij from the remaining record. Only valid for
  /// committed-but-not-yet-executed traffic (future slots): a link failure
  /// invalidates a plan's tail before the ISP ever sees the volume, so the
  /// speculative charge raise is rolled back. Past slots' actual traffic
  /// must never be uncommitted — that money is spent.
  void uncommit(int link, int slot, double volume);

  /// X_ij(t): the maximum per-slot volume committed on `link` so far.
  double charged(int link) const { return charged_[link]; }

  /// Volume already committed on `link` during `slot`.
  double committed(int link, int slot) const { return recorder_.volume(link, slot); }

  /// Free headroom on `link` during `slot` under the current X_ij: volume
  /// that can be added without raising the charge (may be limited further by
  /// link capacity, which the caller owns).
  double free_headroom(int link, int slot) const {
    const double head = charged_[link] - recorder_.volume(link, slot);
    return head > 0.0 ? head : 0.0;
  }

  /// Cost per time interval, sum_ij a_ij * X_ij — objective (6) divided by
  /// the charging-period length I.
  double cost_per_interval(const net::Topology& topology) const;

  int num_links() const { return static_cast<int>(charged_.size()); }

  /// Full per-slot history, for ex-post q-percentile accounting.
  const PercentileRecorder& recorder() const { return recorder_; }

  /// Snapshot restore: rebuilds a charge state from its per-slot record.
  /// X_ij is set to each series' maximum, which by the commit()/uncommit()
  /// contract is exactly the double the captured state held, so a restored
  /// state answers every query bit for bit.
  static ChargeState restore(PercentileRecorder recorder);

  /// TEST ONLY: writable recorder so the audit mutation tests can move a
  /// series maximum away from X_ij (PercentileRecorder::corrupt_series_for_test).
  PercentileRecorder& mutable_recorder_for_test() { return recorder_; }

 private:
  PercentileRecorder recorder_;
  std::vector<double> charged_;
};

}  // namespace postcard::charging
