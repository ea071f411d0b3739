// ReplicationStandby: a warm replica that bootstraps from a shipped
// snapshot, stays current by deterministic replay of the primary's event
// stream, and promotes itself to a serving PostcardServer when the
// primary goes silent (DESIGN.md §14). The seed configures it: the mirror
// takes its topology, RuntimeOptions and backend sequence from the
// snapshot image, so the standby needs only the primary's address. The
// mirror is an unstarted PostcardServer whose runtime replays the stream;
// promotion starts it.
//
// Failover state machine (single run thread):
//
//   CONNECTING ──connect+Hello──► FOLLOWING
//       ▲  │ attempts exhausted        │ snapshot → rebuild mirror
//       │  ▼                           │ events   → queue pushes
//   (backoff with jitter)              │ commit   → tick + fingerprint
//       │                              │            compare
//       │       timeout / EOF / error  │ mismatch → ReplReseed (stay;
//       └──────────────────────────────┘   drop events and commits
//                                          until the next snapshot)
//   attempts exhausted + mirror seeded ──► PROMOTED (the mirror server
//   starts serving; partial slots stay pending and solve at the next
//   tick — client retries + submission dedup give exactly-once)
//   attempts exhausted + never seeded  ──► FAILED (loud, no serving)
//
// Every replayed slot is checked against the primary's divergence
// fingerprint; a mismatch is detected within ONE slot commit and answered
// with a reseed request instead of silently serving wrong state.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "replication/repl_protocol.h"
#include "server/server.h"

namespace postcard::replication {

struct StandbyOptions {
  std::string primary_host = "127.0.0.1";
  int primary_port = 0;
  /// Where the promoted server binds after failover.
  std::string serve_host = "127.0.0.1";
  int serve_port = 0;
  /// Silence longer than this on the replication socket counts as a
  /// missed heartbeat (SO_RCVTIMEO).
  int heartbeat_timeout_ms = 1000;
  /// Consecutive connect/read failures tolerated before failover.
  int reconnect_attempts = 3;
  /// Bounded exponential backoff between reconnects, with deterministic
  /// jitter (a fixed seed; no wall-clock entropy).
  int backoff_base_ms = 25;
  int backoff_max_ms = 400;
  /// Snapshot path handed to the promoted server ("" = none).
  std::string promoted_snapshot_path;
};

struct StandbyStats {
  long snapshots_applied = 0;
  long events_applied = 0;
  long commits_applied = 0;
  long fingerprint_mismatches = 0;
  long reseeds_sent = 0;
  long reconnects = 0;
  /// Any received heartbeat proves the primary ACCEPTED this connection
  /// (it never sends to a socket still in the listen backlog) — the
  /// handshake signal tests use before driving slots when the primary
  /// lives in another process.
  long heartbeats_seen = 0;
  int last_commit_slot = -1;
};

class ReplicationStandby {
 public:
  /// The mirror runs under each seed's recorded RuntimeOptions, with
  /// dedup_submissions forced on so client retries across the failover
  /// apply exactly once.
  explicit ReplicationStandby(StandbyOptions options);
  ~ReplicationStandby();

  ReplicationStandby(const ReplicationStandby&) = delete;
  ReplicationStandby& operator=(const ReplicationStandby&) = delete;

  /// Spawns the run thread (connect → follow → promote-or-fail).
  void start();

  /// Stops following / shuts the promoted server down, joins the thread.
  void stop();

  bool promoted() const { return promoted_.load(std::memory_order_acquire); }
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// The promoted server (nullptr until promoted). The standby keeps
  /// ownership; valid until stop()/destruction.
  server::PostcardServer* server();
  /// Bound port of the promoted server (0 until promoted).
  int serve_port();

  StandbyStats stats() const;

  /// Poll helpers for tests: spin until the condition or the deadline.
  bool wait_for_commit(int slot, int timeout_ms) const;
  bool wait_promoted(int timeout_ms) const;
  bool wait_failed(int timeout_ms) const;

  /// Chaos hook: corrupts the next replicated FileArrival (size += 1.0)
  /// so the following commit's fingerprint MUST mismatch.
  void corrupt_next_event();

 private:
  void run();
  /// Applies one frame; returns false when the connection must drop.
  bool handle_frame(int fd, const server::Frame& frame);
  void promote_or_fail();

  StandbyOptions options_;

  std::thread run_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> promoted_{false};
  std::atomic<bool> failed_{false};
  std::atomic<bool> corrupt_next_{false};

  mutable base::Mutex mu_;
  /// Opened and closed only by the run thread; published here so stop()
  /// can shutdown() it to unblock a read. Cleared under mu_ BEFORE the
  /// close so stop() never touches a recycled descriptor.
  int conn_fd_ GUARDED_BY(mu_) = -1;
  StandbyStats stats_ GUARDED_BY(mu_);
  /// The server a promotion starts, unstarted until then; its runtime
  /// replays the stream. Run thread only.
  std::unique_ptr<server::PostcardServer> mirror_;
  /// The started mirror, once promoted.
  std::unique_ptr<server::PostcardServer> server_ GUARDED_BY(mu_);
};

}  // namespace postcard::replication
