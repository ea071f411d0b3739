#include "replication/primary.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "server/snapshot.h"

namespace postcard::replication {

using server::Frame;
using server::MessageType;
using server::WireError;
using server::WireTimeout;

namespace {

/// Tap-buffer cap. Overflow (a standby stalled across this many pushes)
/// drops the connection for a reseed instead of buffering unboundedly.
constexpr std::size_t kTapBufferCap = std::size_t{1} << 16;

}  // namespace

ReplicationPrimary::ReplicationPrimary(PrimaryOptions options)
    : options_(std::move(options)) {}

ReplicationPrimary::~ReplicationPrimary() { stop(); }

void ReplicationPrimary::attach(server::PostcardServer& server) {
  server_ = &server;
  // The tap runs under the queue lock and takes only buf_mu_ (leaf lock) —
  // see the lock-order note in the header. Each event carries the slot the
  // queue fired it at, so a push that raced a slot's cut reaches the
  // standby already in the next slot.
  server.runtime().events().set_push_tap([this](const runtime::Event& e) {
    base::MutexLock lock(buf_mu_);
    if (overflowed_) return;
    if (buffer_.size() >= kTapBufferCap) {
      overflowed_ = true;
      return;
    }
    buffer_.push_back(e);
  });
  server.set_post_tick_hook([this](int slot) { on_slot_committed(slot); });
}

void ReplicationPrimary::start() {
  if (server_ == nullptr) {
    throw WireError("ReplicationPrimary::start() before attach()");
  }
  {
    base::MutexLock lock(seed_gate_->mu);
    seed_gate_->primary = this;
  }
  listen_fd_ = server::listen_tcp(options_.host, options_.port,
                                  /*backlog=*/4, &port_);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
  heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
}

void ReplicationPrimary::stop() {
  {
    // Waits out a seed task already running on the driver; later ones find
    // the gate closed.
    base::MutexLock lock(seed_gate_->mu);
    seed_gate_->primary = nullptr;
  }
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    base::MutexLock lock(mu_);
    if (conn_fd_ >= 0) ::shutdown(conn_fd_, SHUT_RDWR);
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (io_thread_.joinable()) io_thread_.join();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  {
    base::MutexLock lock(mu_);
    if (conn_fd_ >= 0) {
      ::close(conn_fd_);
      conn_fd_ = -1;
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void ReplicationPrimary::kill_abruptly() {
  // Emulates SIGKILL from the standby's point of view: no final frames,
  // no goodbye — the TCP stream just dies. The hook and heartbeat stop
  // shipping instantly; fds close later in stop().
  killed_.store(true, std::memory_order_release);
  base::MutexLock lock(mu_);
  if (conn_fd_ >= 0) ::shutdown(conn_fd_, SHUT_RDWR);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

bool ReplicationPrimary::standby_connected() const {
  base::MutexLock lock(mu_);
  return conn_fd_ >= 0 && !conn_failed_;
}

PrimaryStats ReplicationPrimary::stats() const {
  base::MutexLock lock(mu_);
  return stats_;
}

bool ReplicationPrimary::send_locked(MessageType type,
                                     const std::vector<std::uint8_t>& payload) {
  try {
    server::write_frame(conn_fd_, type, payload, options_.send_timeout_ms);
  } catch (const WireTimeout&) {
    drop_standby_locked(/*slow=*/true);
    return false;
  } catch (const WireError&) {
    drop_standby_locked(/*slow=*/false);
    return false;
  }
  return true;
}

void ReplicationPrimary::discard_buffer() {
  base::MutexLock lock(buf_mu_);
  buffer_.clear();
  overflowed_ = false;
}

void ReplicationPrimary::drop_standby_locked(bool slow) {
  if (conn_fd_ < 0 || conn_failed_) return;
  conn_failed_ = true;
  if (slow) {
    stats_.standbys_dropped_slow++;
  } else {
    stats_.standbys_dropped++;
  }
  needs_seed_ = true;
  // Wake the io thread (it owns the close) and give the standby a hard
  // EOF so it starts its reconnect clock immediately.
  ::shutdown(conn_fd_, SHUT_RDWR);
}

bool ReplicationPrimary::flush_events_locked() {
  std::vector<runtime::Event> batch;
  bool overflow = false;
  {
    base::MutexLock lock(buf_mu_);
    batch.swap(buffer_);
    overflow = overflowed_;
    overflowed_ = false;
  }
  if (overflow) {
    // The standby missed pushes; nothing we still hold can catch it up.
    drop_standby_locked(/*slow=*/true);
    return false;
  }
  // Pushes below the watermark are already inside the shipped snapshot
  // (or drained into it); shipping them again would double-apply.
  const std::uint64_t wm = watermark_;
  batch.erase(std::remove_if(
                  batch.begin(), batch.end(),
                  [wm](const runtime::Event& e) { return e.seq < wm; }),
              batch.end());
  if (batch.empty()) return true;
  ReplEvents msg;
  msg.events = std::move(batch);
  if (!send_locked(MessageType::kReplEvents, msg.encode())) return false;
  stats_.events_shipped += static_cast<long>(msg.events.size());
  return true;
}

void ReplicationPrimary::on_slot_committed(int slot) {
  if (!running_.load(std::memory_order_acquire) ||
      killed_.load(std::memory_order_acquire)) {
    return;
  }
  // Fingerprint before taking mu_: stats() is thread-safe and the state it
  // reads was committed by this very thread's tick.
  const std::uint64_t fp = runtime_fingerprint(server_->runtime().stats());
  base::MutexLock lock(mu_);
  if (conn_fd_ < 0 || conn_failed_) {
    discard_buffer();
    return;
  }
  if (needs_seed_ && !ship_seed_locked()) return;
  if (!flush_events_locked()) return;
  ReplCommit commit;
  commit.slot = slot;
  commit.fingerprint = fp;
  if (!send_locked(MessageType::kReplCommit, commit.encode())) return;
  stats_.commits_shipped++;
}

bool ReplicationPrimary::ship_seed_locked() {
  runtime::RuntimeSnapshot snap;
  try {
    snap = server_->runtime().capture_snapshot();
  } catch (const std::exception& e) {
    std::cerr << "replication: snapshot capture failed: " << e.what() << "\n";
    drop_standby_locked(/*slow=*/false);
    return false;
  }
  watermark_ = snap.event_seq_watermark;
  ReplSnapshot seed;
  seed.image = server::encode_snapshot(snap);
  if (!send_locked(MessageType::kReplSnapshot, seed.encode())) return false;
  needs_seed_ = false;
  stats_.snapshots_shipped++;
  return true;
}

void ReplicationPrimary::post_seed() {
  server_->post_to_driver([gate = seed_gate_] {
    base::MutexLock lock(gate->mu);
    if (gate->primary != nullptr) gate->primary->seed_between_ticks();
  });
}

void ReplicationPrimary::seed_between_ticks() {
  if (!running_.load(std::memory_order_acquire) ||
      killed_.load(std::memory_order_acquire)) {
    return;
  }
  base::MutexLock lock(mu_);
  if (conn_fd_ < 0 || conn_failed_ || !needs_seed_) return;
  // Events pushed after the capture are past the new watermark; the next
  // heartbeat or commit ships them.
  ship_seed_locked();
}

void ReplicationPrimary::heartbeat_loop() {
  using Clock = std::chrono::steady_clock;
  Clock::time_point next = Clock::now();
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (Clock::now() < next) continue;
    next = Clock::now() + std::chrono::milliseconds(options_.heartbeat_every_ms);
    if (killed_.load(std::memory_order_acquire)) continue;
    base::MutexLock lock(mu_);
    if (conn_fd_ < 0 || conn_failed_) {
      discard_buffer();
      continue;
    }
    // While a seed is pending, ship ONLY the heartbeat: any event sent now
    // would also appear in the upcoming snapshot's pending set and be
    // applied twice by the standby.
    if (!needs_seed_) {
      if (!flush_events_locked()) continue;
    }
    if (!send_locked(MessageType::kReplHeartbeat, ReplHeartbeat{}.encode())) {
      continue;
    }
    stats_.heartbeats_sent++;
  }
}

void ReplicationPrimary::io_loop() {
  while (running_.load(std::memory_order_acquire)) {
    int conn = -1;
    {
      base::MutexLock lock(mu_);
      if (conn_fd_ >= 0 && conn_failed_) {
        ::close(conn_fd_);
        conn_fd_ = -1;
        conn_failed_ = false;
      }
      conn = conn_fd_;
    }

    struct pollfd pfds[2];
    pfds[0].fd = listen_fd_;
    pfds[0].events = POLLIN;
    pfds[0].revents = 0;
    pfds[1].fd = conn;
    pfds[1].events = POLLIN;
    pfds[1].revents = 0;
    const int n = ::poll(pfds, conn >= 0 ? 2 : 1, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (n == 0) continue;

    if (pfds[0].revents != 0 && !killed_.load(std::memory_order_acquire)) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        // A short SO_SNDTIMEO makes blocking sends surface EAGAIN, which
        // write_all() converts into its poll()-based deadline loop.
        server::set_socket_timeout(fd, SO_SNDTIMEO, 100);
        if (options_.sndbuf_bytes > 0) {
          ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                       sizeof(options_.sndbuf_bytes));
        }
        base::MutexLock lock(mu_);
        if (conn_fd_ >= 0) {
          ::close(conn_fd_);
          stats_.standbys_dropped++;
        }
        conn_fd_ = fd;
        conn_failed_ = false;
        needs_seed_ = true;
        stats_.standbys_accepted++;
      }
    }

    if (conn >= 0 && pfds[1].revents != 0) {
      // This thread is the only closer of conn fds, so reading from the
      // unlocked copy is safe; sends (under mu_) may run concurrently,
      // which sockets permit.
      bool drop = false;
      try {
        Frame frame;
        if (!server::read_frame(conn, &frame, kReplMaxFrameBytes)) {
          drop = true;  // standby went away
        } else {
          switch (frame.type) {
            case MessageType::kReplHello: {
              ReplHello::decode(frame.payload);
              {
                base::MutexLock lock(mu_);
                needs_seed_ = true;
              }
              post_seed();
              break;
            }
            case MessageType::kReplAck: {
              const ReplAck ack = ReplAck::decode(frame.payload);
              base::MutexLock lock(mu_);
              stats_.acks_received++;
              stats_.last_acked_slot =
                  std::max(stats_.last_acked_slot, ack.slot);
              break;
            }
            case MessageType::kReplReseed: {
              const ReplReseed req = ReplReseed::decode(frame.payload);
              std::cerr << "replication: standby requested reseed: "
                        << req.reason << "\n";
              {
                base::MutexLock lock(mu_);
                needs_seed_ = true;
                stats_.reseeds_requested++;
              }
              post_seed();
              break;
            }
            default:
              drop = true;  // protocol violation on the repl channel
          }
        }
      } catch (const WireError&) {
        drop = true;
      }
      if (drop) {
        base::MutexLock lock(mu_);
        if (conn_fd_ == conn) drop_standby_locked(/*slow=*/false);
      }
    }
  }
}

}  // namespace postcard::replication
