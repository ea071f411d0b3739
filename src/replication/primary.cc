#include "replication/primary.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
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

ReplicationPrimary::ReplicationPrimary(PrimaryOptions options)
    : options_(std::move(options)) {}

ReplicationPrimary::~ReplicationPrimary() { stop(); }

void ReplicationPrimary::attach(server::PostcardServer& server) {
  if (server.runtime_options().slot_deadline_seconds > 0.0) {
    // The standby replays every slot; a wall-clock cut would land on
    // different pivots there, so every commit would look diverged.
    throw std::invalid_argument(
        "replication primary cannot ship a wall-clock slot deadline "
        "(slot_deadline_seconds must be 0)");
  }
  server_ = &server;
  // The tap runs under the queue lock and takes only buf_mu_ (leaf lock) —
  // see the lock-order note in the header. SlotTicks are filtered out
  // here: the standby replays the tick itself on ReplCommit, so shipping
  // them would double-tick the mirror.
  server.runtime().events().set_push_tap([this](const runtime::Event& e) {
    if (std::holds_alternative<runtime::SlotTick>(e.payload)) return;
    base::MutexLock lock(buf_mu_);
    if (overflowed_) return;
    if (buffer_.size() >= options_.buffer_cap) {
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
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw WireError("replication socket() failed: errno " +
                    std::to_string(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw WireError("invalid replication listen address " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw WireError("replication bind failed: errno " + std::to_string(err));
  }
  if (::listen(listen_fd_, 4) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw WireError("replication listen failed: errno " + std::to_string(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
  heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
}

void ReplicationPrimary::stop() {
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
  try {
    server::write_frame(conn_fd_, MessageType::kReplEvents, msg.encode(),
                        options_.send_timeout_ms);
  } catch (const WireTimeout&) {
    drop_standby_locked(/*slow=*/true);
    return false;
  } catch (const WireError&) {
    drop_standby_locked(/*slow=*/false);
    return false;
  }
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
    base::MutexLock buf_lock(buf_mu_);
    buffer_.clear();
    overflowed_ = false;
    return;
  }
  if (needs_seed_) {
    runtime::RuntimeSnapshot snap;
    try {
      snap = server_->runtime().capture_snapshot();
    } catch (const std::exception& e) {
      std::cerr << "replication: snapshot capture failed: " << e.what()
                << "\n";
      drop_standby_locked(/*slow=*/false);
      return;
    }
    watermark_ = snap.event_seq_watermark;
    ReplSnapshot seed;
    seed.image = server::encode_snapshot(snap);
    try {
      server::write_frame(conn_fd_, MessageType::kReplSnapshot, seed.encode(),
                          options_.send_timeout_ms);
    } catch (const WireTimeout&) {
      drop_standby_locked(/*slow=*/true);
      return;
    } catch (const WireError&) {
      drop_standby_locked(/*slow=*/false);
      return;
    }
    needs_seed_ = false;
    stats_.snapshots_shipped++;
  }
  if (!flush_events_locked()) return;
  ReplCommit commit;
  commit.slot = slot;
  commit.fingerprint = fp;
  try {
    server::write_frame(conn_fd_, MessageType::kReplCommit, commit.encode(),
                        options_.send_timeout_ms);
  } catch (const WireTimeout&) {
    drop_standby_locked(/*slow=*/true);
    return;
  } catch (const WireError&) {
    drop_standby_locked(/*slow=*/false);
    return;
  }
  stats_.commits_shipped++;
}

void ReplicationPrimary::heartbeat_loop() {
  using Clock = std::chrono::steady_clock;
  Clock::time_point next = Clock::now();
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (Clock::now() < next) continue;
    next = Clock::now() + std::chrono::milliseconds(options_.heartbeat_every_ms);
    if (killed_.load(std::memory_order_acquire)) continue;
    // slots_processed is read under the runtime's stats lock — safe from
    // this thread, unlike current_slot().
    const int next_slot = server_->runtime().stats().slots_processed;
    base::MutexLock lock(mu_);
    if (conn_fd_ < 0 || conn_failed_) {
      base::MutexLock buf_lock(buf_mu_);
      buffer_.clear();
      overflowed_ = false;
      continue;
    }
    // While a seed is pending, ship ONLY the heartbeat: any event sent now
    // would also appear in the upcoming snapshot's pending set and be
    // applied twice by the standby.
    if (!needs_seed_) {
      if (!flush_events_locked()) continue;
    }
    ReplHeartbeat hb;
    hb.next_slot = next_slot;
    try {
      server::write_frame(conn_fd_, MessageType::kReplHeartbeat, hb.encode(),
                          options_.send_timeout_ms);
    } catch (const WireTimeout&) {
      drop_standby_locked(/*slow=*/true);
      continue;
    } catch (const WireError&) {
      drop_standby_locked(/*slow=*/false);
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
        struct timeval tv;
        tv.tv_sec = 0;
        tv.tv_usec = 100 * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
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
        if (!server::read_frame(conn, &frame, options_.max_frame_bytes)) {
          drop = true;  // standby went away
        } else {
          switch (frame.type) {
            case MessageType::kReplHello: {
              ReplHello::decode(frame.payload);
              base::MutexLock lock(mu_);
              needs_seed_ = true;
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
              base::MutexLock lock(mu_);
              needs_seed_ = true;
              stats_.reseeds_requested++;
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
