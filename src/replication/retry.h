// Retry pacing shared by the replication standby and the failover client:
// a deadline poll and a capped exponential backoff with seeded jitter.
#pragma once

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>

namespace postcard::replication {

/// Polls `done` every 2 ms until it holds or `timeout_ms` has passed;
/// returns its last value.
template <typename Done>
bool poll_until(Done&& done, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!done() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done();
}

/// The wait before retry number `failures` (1 after the first failure):
/// `base_ms` doubled per earlier failure, capped at `max_ms`, plus a
/// jitter of up to half that drawn from `rng`. Callers seed `rng` with a
/// constant, so the waits repeat run to run.
inline int backoff_ms(int failures, int base_ms, int max_ms,
                      std::minstd_rand& rng) {
  const int shift = std::clamp(failures - 1, 0, 10);
  const int base = std::min(max_ms, base_ms << shift);
  return base + static_cast<int>(rng() % static_cast<unsigned>(base / 2 + 1));
}

}  // namespace postcard::replication
