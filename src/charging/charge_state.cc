#include "charging/charge_state.h"

#include <algorithm>
#include <stdexcept>

namespace postcard::charging {

ChargeState::ChargeState(int num_links) : recorder_(num_links) {
  charged_.assign(static_cast<std::size_t>(num_links), 0.0);
}

void ChargeState::commit(int link, int slot, double volume) {
  if (volume == 0.0) return;
  recorder_.record(link, slot, volume);
  charged_[link] = std::max(charged_[link], recorder_.volume(link, slot));
}

void ChargeState::uncommit(int link, int slot, double volume) {
  if (volume == 0.0) return;
  recorder_.reduce(link, slot, volume);
  // X_ij is the running maximum of the record; with one slot lowered the
  // maximum over the remaining series is exact (past slots are untouched
  // by contract, so real traffic maxima survive). Only LinkDown replans
  // uncommit, so one rescan of the series per call is cheap enough.
  charged_[link] = recorder_.max_volume(link);
}

ChargeState ChargeState::restore(PercentileRecorder recorder) {
  ChargeState state(recorder.num_links());
  state.recorder_ = std::move(recorder);
  for (int l = 0; l < state.num_links(); ++l) {
    state.charged_[l] = state.recorder_.max_volume(l);
  }
  return state;
}

double ChargeState::cost_per_interval(const net::Topology& topology) const {
  if (topology.num_links() != num_links()) {
    throw std::invalid_argument("topology link count mismatch");
  }
  double cost = 0.0;
  for (int l = 0; l < num_links(); ++l) {
    cost += topology.link(l).unit_cost * charged_[l];
  }
  return cost;
}

}  // namespace postcard::charging
