#include "replication/standby.h"

#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <random>
#include <stdexcept>
#include <utility>

#include "server/snapshot.h"

namespace postcard::replication {

using server::Frame;
using server::MessageType;
using server::WireError;
using server::WireTimeout;

namespace {

/// Sleeps in small increments so stop() stays responsive mid-backoff.
template <typename Alive>
void interruptible_sleep_ms(int ms, Alive&& alive) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(ms);
  while (alive() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

ReplicationStandby::ReplicationStandby(net::Topology topology,
                                       std::vector<BackendSpec> backends,
                                       StandbyOptions options)
    : topology_(std::move(topology)),
      backends_(std::move(backends)),
      options_(std::move(options)) {
  if (options_.runtime.slot_deadline_seconds > 0.0) {
    // Failover correctness IS replay determinism; a wall-clock cut lands on
    // different pivots here and on the primary, so every commit would look
    // diverged.
    throw std::invalid_argument(
        "replication standby cannot replay a wall-clock slot deadline "
        "(slot_deadline_seconds must be 0)");
  }
  if (backends_.empty()) {
    throw std::invalid_argument("replication standby needs at least one backend");
  }
  // Client retries across the failover must apply exactly once.
  options_.runtime.dedup_submissions = true;
}

ReplicationStandby::~ReplicationStandby() { stop(); }

void ReplicationStandby::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  run_thread_ = std::thread([this] { run(); });
}

void ReplicationStandby::stop() {
  running_.store(false, std::memory_order_release);
  {
    base::MutexLock lock(mu_);
    if (conn_fd_ >= 0) ::shutdown(conn_fd_, SHUT_RDWR);
  }
  if (run_thread_.joinable()) run_thread_.join();
  base::MutexLock lock(mu_);
  if (server_ != nullptr) {
    server_->request_shutdown();
    server_->wait();
  }
}

server::PostcardServer* ReplicationStandby::server() {
  base::MutexLock lock(mu_);
  return server_.get();
}

int ReplicationStandby::serve_port() {
  base::MutexLock lock(mu_);
  return server_ != nullptr ? server_->port() : 0;
}

StandbyStats ReplicationStandby::stats() const {
  base::MutexLock lock(mu_);
  return stats_;
}

bool ReplicationStandby::wait_for_commit(int slot, int timeout_ms) const {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    {
      base::MutexLock lock(mu_);
      if (stats_.last_commit_slot >= slot) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  base::MutexLock lock(mu_);
  return stats_.last_commit_slot >= slot;
}

bool ReplicationStandby::wait_promoted(int timeout_ms) const {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!promoted() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return promoted();
}

bool ReplicationStandby::wait_failed(int timeout_ms) const {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!failed() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return failed();
}

void ReplicationStandby::corrupt_next_event() {
  corrupt_next_.store(true, std::memory_order_release);
}

int ReplicationStandby::connect_once() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.primary_port));
  if (::inet_pton(AF_INET, options_.primary_host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  // Silence beyond the heartbeat timeout surfaces as WireTimeout from
  // read_frame — the standby's missed-heartbeat detector.
  struct timeval tv;
  tv.tv_sec = options_.heartbeat_timeout_ms / 1000;
  tv.tv_usec = (options_.heartbeat_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

std::unique_ptr<runtime::ControllerRuntime> ReplicationStandby::build_mirror() {
  auto mirror = std::make_unique<runtime::ControllerRuntime>(topology_,
                                                             options_.runtime);
  for (const BackendSpec& spec : backends_) {
    if (spec.kind == BackendSpec::Kind::kPostcard) {
      mirror->add_postcard_backend(spec.postcard);
    } else {
      mirror->add_flow_backend(spec.flow);
    }
  }
  return mirror;
}

void ReplicationStandby::register_backends(server::PostcardServer& srv) const {
  for (const BackendSpec& spec : backends_) {
    if (spec.kind == BackendSpec::Kind::kPostcard) {
      srv.add_postcard_backend(spec.postcard);
    } else {
      srv.add_flow_backend(spec.flow);
    }
  }
}

bool ReplicationStandby::handle_frame(int fd, const Frame& frame) {
  switch (frame.type) {
    case MessageType::kReplSnapshot: {
      const ReplSnapshot seed = ReplSnapshot::decode(frame.payload);
      const runtime::RuntimeSnapshot snap =
          server::decode_snapshot(seed.image);
      // Reseed = rebuild: restore_snapshot only accepts a fresh runtime,
      // and a diverged mirror has nothing worth keeping anyway.
      std::unique_ptr<runtime::ControllerRuntime> mirror = build_mirror();
      mirror->restore_snapshot(snap);
      mirror_ = std::move(mirror);
      base::MutexLock lock(mu_);
      stats_.snapshots_applied++;
      return true;
    }
    case MessageType::kReplEvents: {
      ReplEvents batch = ReplEvents::decode(frame.payload);
      if (mirror_ == nullptr) {
        // Events can only legally follow a snapshot; seeing them first
        // means we missed one — ask for a fresh seed.
        server::write_frame(fd, MessageType::kReplReseed,
                            ReplReseed{"events before snapshot"}.encode());
        base::MutexLock lock(mu_);
        stats_.reseeds_sent++;
        return true;
      }
      for (runtime::Event& e : batch.events) {
        if (std::holds_alternative<runtime::SlotTick>(e.payload)) continue;
        if (auto* arrival = std::get_if<runtime::FileArrival>(&e.payload)) {
          net::FileRequest file = arrival->file;
          if (corrupt_next_.exchange(false, std::memory_order_acq_rel)) {
            file.size += 1.0;  // chaos: one bit of divergence, loudly caught
          }
          mirror_->ingress().replicate_admit(file);
        } else {
          mirror_->events().push(e.slot, e.payload);
        }
      }
      base::MutexLock lock(mu_);
      stats_.events_applied += static_cast<long>(batch.events.size());
      return true;
    }
    case MessageType::kReplCommit: {
      const ReplCommit commit = ReplCommit::decode(frame.payload);
      if (mirror_ == nullptr) {
        server::write_frame(fd, MessageType::kReplReseed,
                            ReplReseed{"commit before snapshot"}.encode());
        base::MutexLock lock(mu_);
        stats_.reseeds_sent++;
        return true;
      }
      const int cur = mirror_->current_slot();
      std::string divergence;
      if (commit.slot > cur) {
        // A commit we never saw the events for — the stream gapped.
        divergence = "commit slot " + std::to_string(commit.slot) +
                     " ahead of mirror slot " + std::to_string(cur);
      } else if (commit.slot == cur) {
        try {
          mirror_->tick();
        } catch (const std::exception& e) {
          // A fail-fast audit abort on replayed events IS divergence.
          divergence = std::string("mirror tick failed: ") + e.what();
        }
      }
      // commit.slot < cur: the seed snapshot already contains this slot's
      // effects; the fingerprint comparison below still validates it.
      std::uint64_t fp = 0;
      if (divergence.empty()) {
        fp = runtime_fingerprint(mirror_->stats());
        if (fp != commit.fingerprint) {
          divergence = "fingerprint mismatch at slot " +
                       std::to_string(commit.slot);
        }
      }
      if (!divergence.empty()) {
        mirror_.reset();  // poisoned; only a fresh seed can recover it
        server::write_frame(fd, MessageType::kReplReseed,
                            ReplReseed{divergence}.encode());
        base::MutexLock lock(mu_);
        stats_.fingerprint_mismatches++;
        stats_.reseeds_sent++;
        return true;
      }
      server::write_frame(fd, MessageType::kReplAck,
                          ReplAck{commit.slot, fp}.encode());
      base::MutexLock lock(mu_);
      stats_.commits_applied++;
      stats_.last_commit_slot = std::max(stats_.last_commit_slot, commit.slot);
      return true;
    }
    case MessageType::kReplHeartbeat: {
      ReplHeartbeat::decode(frame.payload);  // liveness only
      {
        base::MutexLock lock(mu_);
        ++stats_.heartbeats_seen;
      }
      return true;
    }
    default:
      return false;  // protocol violation on the replication channel
  }
}

void ReplicationStandby::run() {
  std::minstd_rand rng(options_.jitter_seed);
  const auto alive = [this] {
    return running_.load(std::memory_order_acquire);
  };
  const auto backoff = [&](int failures) {
    const int shift = std::min(failures > 0 ? failures - 1 : 0, 10);
    const int base = std::min(options_.backoff_max_ms,
                              options_.backoff_base_ms << shift);
    const int jitter =
        static_cast<int>(rng() % static_cast<unsigned>(base / 2 + 1));
    interruptible_sleep_ms(base + jitter, alive);
  };

  int failures = 0;
  while (alive()) {
    const int fd = connect_once();
    if (fd < 0) {
      failures++;
      if (failures > options_.reconnect_attempts) break;
      backoff(failures);
      continue;
    }
    {
      base::MutexLock lock(mu_);
      conn_fd_ = fd;
    }
    bool saw_frame = false;
    try {
      server::write_frame(fd, MessageType::kReplHello,
                          [this] {
                            base::MutexLock lock(mu_);
                            return ReplHello{stats_.last_commit_slot};
                          }()
                              .encode());
      Frame frame;
      while (alive()) {
        if (!server::read_frame(fd, &frame, options_.max_frame_bytes)) {
          break;  // hard EOF: the primary died or dropped us
        }
        saw_frame = true;
        failures = 0;  // consecutive-failure counter: any frame is progress
        if (!handle_frame(fd, frame)) break;
      }
    } catch (const WireTimeout&) {
      // Missed heartbeat window: primary silent (crashed or partitioned).
    } catch (const WireError&) {
      // Torn frame / socket error mid-stream.
    }
    {
      base::MutexLock lock(mu_);
      conn_fd_ = -1;
      if (saw_frame) stats_.reconnects++;
    }
    ::close(fd);
    if (!alive()) return;
    failures++;
    if (failures > options_.reconnect_attempts) break;
    backoff(failures);
  }
  if (alive()) promote_or_fail();
}

void ReplicationStandby::promote_or_fail() {
  if (mirror_ == nullptr) {
    // Never seeded: promoting would serve an empty runtime as if it were
    // the primary's state. Fail loudly instead.
    std::cerr << "replication: standby never seeded; refusing to promote\n";
    failed_.store(true, std::memory_order_release);
    return;
  }
  try {
    const runtime::RuntimeSnapshot snap = mirror_->capture_snapshot();
    server::ServerOptions sopts;
    sopts.host = options_.serve_host;
    sopts.port = options_.serve_port;
    sopts.runtime = options_.runtime;  // dedup_submissions already forced on
    sopts.snapshot_path = options_.promoted_snapshot_path;
    auto srv = std::make_unique<server::PostcardServer>(topology_, sopts);
    register_backends(*srv);
    srv->runtime().restore_snapshot(snap);
    srv->start();
    {
      base::MutexLock lock(mu_);
      server_ = std::move(srv);
    }
    promoted_.store(true, std::memory_order_release);
  } catch (const std::exception& e) {
    std::cerr << "replication: standby promotion failed: " << e.what() << "\n";
    failed_.store(true, std::memory_order_release);
  }
}

}  // namespace postcard::replication
