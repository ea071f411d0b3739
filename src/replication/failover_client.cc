#include "replication/failover_client.h"

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "replication/retry.h"

namespace postcard::replication {

using server::PostcardClient;
using server::WireError;

namespace {

/// Total transport failures tolerated per operation before rethrowing.
constexpr int kMaxAttempts = 8;
/// Bounded exponential backoff between reconnects, with deterministic
/// jitter (a fixed seed; no wall-clock entropy).
constexpr int kBackoffBaseMs = 10;
constexpr int kBackoffMaxMs = 250;
constexpr std::uint32_t kJitterSeed = 1;

}  // namespace

FailoverClient::FailoverClient(FailoverClientOptions options)
    : options_(std::move(options)), rng_(kJitterSeed) {
  if (options_.endpoints.empty()) {
    throw std::invalid_argument("FailoverClient needs at least one endpoint");
  }
}

PostcardClient& FailoverClient::ensure_client() {
  if (client_ == nullptr) {
    const FailoverEndpoint& ep =
        options_.endpoints[static_cast<std::size_t>(active_)];
    client_ = std::make_unique<PostcardClient>(ep.host, ep.port,
                                               options_.io_timeout_ms);
  }
  return *client_;
}

void FailoverClient::on_failure() {
  client_.reset();
  failovers_++;
  consecutive_failures_++;
  active_ = (active_ + 1) % static_cast<int>(options_.endpoints.size());
  std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms(
      consecutive_failures_, kBackoffBaseMs, kBackoffMaxMs, rng_)));
}

template <typename Op>
auto FailoverClient::with_retry(Op&& op)
    -> decltype(op(*static_cast<PostcardClient*>(nullptr))) {
  for (int attempt = 0;; ++attempt) {
    try {
      auto result = op(ensure_client());
      consecutive_failures_ = 0;
      return result;
    } catch (const WireError&) {
      if (attempt + 1 >= kMaxAttempts) throw;
      on_failure();
    }
  }
}

server::SubmitVerdict FailoverClient::submit_file(const net::FileRequest& file) {
  return with_retry(
      [&](PostcardClient& c) { return c.submit_file(file); });
}

std::vector<server::SubmitVerdict> FailoverClient::submit_batch(
    const std::vector<net::FileRequest>& files) {
  return with_retry(
      [&](PostcardClient& c) { return c.submit_batch(files); });
}

server::PlanReply FailoverClient::query_plan(int backend, int file_id) {
  return with_retry(
      [&](PostcardClient& c) { return c.query_plan(backend, file_id); });
}

runtime::RuntimeStats FailoverClient::query_stats() {
  return with_retry([&](PostcardClient& c) { return c.query_stats(); });
}

int FailoverClient::advance_to(int target_slot) {
  int attempt = 0;
  while (true) {
    // Re-reading the clock after every failure is what makes this
    // idempotent: we only ever request the REMAINING delta, so ticks that
    // landed before a lost reply are never re-applied.
    const int cur = with_retry(
        [&](PostcardClient& c) { return c.query_stats().slots_processed; });
    if (cur >= target_slot) return cur;
    try {
      ensure_client().advance(target_slot - cur);
    } catch (const WireError&) {
      if (++attempt >= kMaxAttempts) throw;
      on_failure();
    }
  }
}

}  // namespace postcard::replication
