// FailoverClient: a PostcardClient wrapper that survives a controller
// failover (DESIGN.md §14).
//
// It holds an ordered endpoint list (primary first, promoted standby
// next), bounds every call with an io timeout, and on any transport error
// reconnects to the next endpoint with bounded exponential backoff and
// deterministic jitter. Safety rests on the server side's idempotent
// submissions (RuntimeOptions::dedup_submissions): a SubmitFile whose
// reply was lost in the crash can be resubmitted verbatim and is applied
// exactly once — the retry's verdict reports duplicate = true.
//
// advance_to() exists because plain advance(k) is NOT idempotent: if the
// reply is lost the caller cannot know whether the ticks happened. It
// re-reads slots_processed after every failure and only requests the
// remaining delta, so the slot clock lands exactly on the target no
// matter how many retries it took.
#pragma once

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "server/client.h"

namespace postcard::replication {

struct FailoverEndpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

struct FailoverClientOptions {
  std::vector<FailoverEndpoint> endpoints;  // tried in order, round-robin
  /// SO_RCVTIMEO/SO_SNDTIMEO per call, so a dead primary fails the call in
  /// bounded time instead of hanging the client forever.
  int io_timeout_ms = 1000;
};

class FailoverClient {
 public:
  explicit FailoverClient(FailoverClientOptions options);

  FailoverClient(const FailoverClient&) = delete;
  FailoverClient& operator=(const FailoverClient&) = delete;

  /// Idempotent under server-side dedup: safe to retry across a failover.
  server::SubmitVerdict submit_file(const net::FileRequest& file);
  std::vector<server::SubmitVerdict> submit_batch(
      const std::vector<net::FileRequest>& files);

  server::PlanReply query_plan(int backend, int file_id);
  runtime::RuntimeStats query_stats();

  /// Ticks the slot clock until slots_processed reaches `target_slot`
  /// (no-op when already past). Returns the final slots_processed.
  int advance_to(int target_slot);

  /// Index into options.endpoints of the connection last used.
  int active_endpoint() const { return active_; }
  /// Transport failures that forced a reconnect/endpoint rotation.
  long failovers() const { return failovers_; }

 private:
  /// Runs `op` against a live connection, reconnecting and rotating
  /// endpoints on WireError until it succeeds or attempts run out (then
  /// rethrows the last error).
  template <typename Op>
  auto with_retry(Op&& op) -> decltype(op(*static_cast<server::PostcardClient*>(nullptr)));

  server::PostcardClient& ensure_client();
  void on_failure();

  FailoverClientOptions options_;
  std::unique_ptr<server::PostcardClient> client_;
  std::minstd_rand rng_;
  int active_ = 0;
  int consecutive_failures_ = 0;
  long failovers_ = 0;
};

}  // namespace postcard::replication
