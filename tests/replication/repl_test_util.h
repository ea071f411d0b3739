// Shared fixtures for the replication suite: the deterministic workload
// both the reference and the replicated runs replay, and the primary /
// standby wiring every test repeats.
#pragma once

#include <chrono>
#include <string>
#include <thread>

#include <unistd.h>

#include "replication/primary.h"
#include "replication/standby.h"
#include "sim/workload.h"

namespace postcard::replication {

inline sim::WorkloadParams repl_workload(std::uint64_t seed) {
  sim::WorkloadParams p;
  p.num_datacenters = 5;
  p.link_capacity = 100.0;
  p.cost_min = 1.0;
  p.cost_max = 10.0;
  p.files_per_slot_min = 1;
  p.files_per_slot_max = 3;
  p.size_min = 10.0;
  p.size_max = 80.0;
  p.deadline_min = 1;
  p.deadline_max = 3;
  p.num_slots = 10;
  p.seed = seed;
  return p;
}

/// Runtime options both sides of a replicated pair must share:
/// idempotent submissions (and no wall-clock slot deadline, the default).
inline runtime::RuntimeOptions replicated_runtime_options() {
  runtime::RuntimeOptions options;
  options.dedup_submissions = true;
  return options;
}

/// Standby options tuned for tests: a short heartbeat window and few
/// reconnect attempts so failover completes in well under a second on an
/// unloaded machine, with sanitizer headroom left in the poll deadlines.
inline StandbyOptions test_standby_options(int primary_port) {
  StandbyOptions options;
  options.primary_port = primary_port;
  options.runtime = replicated_runtime_options();
  options.heartbeat_timeout_ms = 400;
  options.reconnect_attempts = 2;
  options.backoff_base_ms = 10;
  options.backoff_max_ms = 50;
  return options;
}

/// Generous deadline for poll-style waits: sanitizers stretch wall time.
inline constexpr int kWaitMs = 30000;

/// Polls `pred` until it holds or `timeout_ms` elapses.
template <typename Pred>
bool poll_until(Pred&& pred, int timeout_ms = kWaitMs) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Blocks until the primary has accepted a standby connection. Seeds ship
/// only at slot commits, so every test must ensure the follower is
/// CONNECTED before driving the slots it expects the follower to see —
/// otherwise, under load, the last commit can pass before the connect
/// and the standby waits forever for a seed that never ships.
inline bool wait_standby_connected(const ReplicationPrimary& primary,
                                   int timeout_ms = kWaitMs) {
  return poll_until([&] { return primary.standby_connected(); }, timeout_ms);
}

}  // namespace postcard::replication
