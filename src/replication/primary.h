// ReplicationPrimary: streams a PostcardServer's committed event log to a
// standby (DESIGN.md §14).
//
// Wiring (all installed by attach(), before the server starts):
//
//   EventQueue push tap ──► bounded buffer (own leaf mutex, never the
//                           queue's) — every push, in seq order
//   post-tick hook      ──► on the driver thread at each slot commit:
//                           seed (snapshot) if needed, flush buffered
//                           events, send ReplCommit{slot, fingerprint}
//   seed task           ──► on the driver thread between ticks, posted
//                           when a standby asks for a seed: ships it at
//                           once, so no further tick is needed
//   heartbeat thread    ──► ReplHeartbeat between commits; also flushes
//                           buffered arrivals so a slow slot clock does
//                           not grow the buffer unboundedly
//   io thread           ──► accepts the standby, reads Hello/Ack/Reseed
//
// Lock order: the seed gate's lock before mu_ (connection + send
// serialization) before buf_mu_ (tap buffer) before the queue's internal
// lock — the tap runs under the queue lock and takes only buf_mu_, so no
// cycle exists. Sends hold mu_ for their duration, bounded by
// send_timeout_ms; only the io thread closes fds, so a send never races a
// close.
//
// Failure policy: any send error or timeout DROPS the standby (it will
// reconnect and be reseeded from a fresh snapshot) — the primary never
// blocks its slot clock on a sick replica beyond the send timeout.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "replication/repl_protocol.h"
#include "server/server.h"

namespace postcard::replication {

struct PrimaryOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0: ephemeral; bound port is port() after start()
  /// Bound on any single send to the standby; expiry drops it.
  int send_timeout_ms = 5000;
  /// Heartbeat (and between-commit event flush) period.
  int heartbeat_every_ms = 200;
  /// Test hook: shrink the standby socket's send buffer to force
  /// WireTimeout on a non-draining peer (0 = leave the default).
  int sndbuf_bytes = 0;
};

struct PrimaryStats {
  long snapshots_shipped = 0;
  long events_shipped = 0;
  long commits_shipped = 0;
  long heartbeats_sent = 0;
  long standbys_accepted = 0;
  long standbys_dropped = 0;       // send/read errors
  long standbys_dropped_slow = 0;  // send timeouts + buffer overflow
  long reseeds_requested = 0;      // standby-reported divergence
  long acks_received = 0;
  int last_acked_slot = -1;
};

class ReplicationPrimary {
 public:
  explicit ReplicationPrimary(PrimaryOptions options);
  ~ReplicationPrimary();

  ReplicationPrimary(const ReplicationPrimary&) = delete;
  ReplicationPrimary& operator=(const ReplicationPrimary&) = delete;

  /// Installs the queue tap and post-tick hook on `server`. Must run
  /// before server.start() (and before any submission exists).
  void attach(server::PostcardServer& server);

  /// Binds the replication listener and spawns the io + heartbeat
  /// threads. Call after attach(), before or after server.start().
  void start();

  /// Graceful stop: detaches nothing on the server side (the hook checks
  /// a flag, a queued seed task the seed gate), closes the listener and
  /// connection, joins threads.
  void stop();

  /// Chaos hook: emulates the process dying mid-stream — stops shipping
  /// instantly and severs the connection WITHOUT any protocol goodbye.
  /// The standby sees a hard EOF exactly as it would after SIGKILL.
  void kill_abruptly();

  int port() const { return port_; }
  bool standby_connected() const;
  PrimaryStats stats() const;

 private:
  void io_loop();
  void heartbeat_loop();
  /// Driver-thread hook: seed/flush/commit for `slot`.
  void on_slot_committed(int slot);
  /// Io thread: queues seed_between_ticks() on the server's driver behind
  /// the seed gate. Returns at once, also before the server has started.
  void post_seed();
  /// Driver-thread task between ticks: ships the seed a standby asked for.
  void seed_between_ticks();
  /// Captures the runtime and sends it as the standby's seed; returns
  /// false (and drops the standby) on error. Driver thread; caller holds
  /// mu_.
  bool ship_seed_locked() REQUIRES(mu_);
  /// Sends buffered events past the watermark; returns false (and drops
  /// the standby) on error. Caller holds mu_.
  bool flush_events_locked() REQUIRES(mu_);
  /// Writes one frame to the standby under the send deadline; returns
  /// false after dropping the standby (slow on a timeout) when the write
  /// fails. Caller holds mu_.
  bool send_locked(server::MessageType type,
                   const std::vector<std::uint8_t>& payload) REQUIRES(mu_);
  /// No standby attached: drops the buffered pushes and the overflow mark
  /// (a standby that attaches later is seeded past them).
  void discard_buffer() EXCLUDES(buf_mu_);
  /// Marks the connection for close by the io thread. Caller holds mu_.
  void drop_standby_locked(bool slow) REQUIRES(mu_);

  /// Shared with every seed task queued on the server's driver: stop()
  /// clears `primary`, so a task that runs after the primary stopped, or
  /// was destroyed, seeds nothing.
  struct SeedGate {
    base::Mutex mu;
    ReplicationPrimary* primary GUARDED_BY(mu) = nullptr;
  };

  PrimaryOptions options_;
  server::PostcardServer* server_ = nullptr;
  std::shared_ptr<SeedGate> seed_gate_ = std::make_shared<SeedGate>();
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> killed_{false};
  std::thread io_thread_;
  std::thread heartbeat_thread_;

  mutable base::Mutex mu_;
  int conn_fd_ GUARDED_BY(mu_) = -1;
  bool conn_failed_ GUARDED_BY(mu_) = false;  // io thread closes it
  bool needs_seed_ GUARDED_BY(mu_) = true;
  std::uint64_t watermark_ GUARDED_BY(mu_) = 0;
  PrimaryStats stats_ GUARDED_BY(mu_);

  mutable base::Mutex buf_mu_;  // leaf lock; taken under the queue lock
  std::vector<runtime::Event> buffer_ GUARDED_BY(buf_mu_);
  bool overflowed_ GUARDED_BY(buf_mu_) = false;
};

}  // namespace postcard::replication
