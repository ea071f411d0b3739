// The deterministic core's one wall clock.
//
// Every seconds counter the core reports is read through a Stopwatch:
// column generation's master and pricing seconds, both audits' seconds,
// the runtime's slot and solve latency and the offline simulator's wall
// time. postcard-lint sanctions clock reads in this file alone
// (DESIGN.md §15). What a Stopwatch measures is telemetry: it must never
// feed a plan, an id or a byte that a replica compares.
#pragma once

#include <chrono>

namespace postcard::lp {

/// Starts at construction; seconds() is the wall time since.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace postcard::lp
