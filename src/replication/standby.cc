#include "replication/standby.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <random>
#include <stdexcept>
#include <utility>

#include "replication/retry.h"
#include "server/snapshot.h"

namespace postcard::replication {

using server::Frame;
using server::MessageType;
using server::WireError;
using server::WireTimeout;

namespace {

/// Seed of the reconnect backoff's jitter: fixed, so no wall-clock entropy.
constexpr std::uint32_t kJitterSeed = 42;

/// Largest datacenter count a seed may name. net::Topology keeps a dense
/// n² link index, so the count decides an allocation before any link is
/// read: 4,096 datacenters is 64 MiB per topology copy, 32 times the
/// largest topology any bench builds.
constexpr int kMaxSeedDatacenters = 4096;

/// The topology a seed was captured on, its links in the image's index
/// order. Throws std::logic_error on a count or link it cannot hold; what
/// it accepts, restore_snapshot checks against the image again.
net::Topology seed_topology(const runtime::RuntimeSnapshot& snap) {
  if (snap.num_datacenters > kMaxSeedDatacenters) {
    throw std::invalid_argument(
        "seed names " + std::to_string(snap.num_datacenters) +
        " datacenters, more than " + std::to_string(kMaxSeedDatacenters));
  }
  net::Topology topology(snap.num_datacenters);
  for (const net::Link& l : snap.links) {
    topology.set_link(l.from, l.to, l.capacity, l.unit_cost);
  }
  return topology;
}

/// The seed's RuntimeOptions, with dedup_submissions forced on: a client
/// retry across the failover must apply exactly once.
runtime::RuntimeOptions seed_options(const runtime::RuntimeSnapshot& snap) {
  runtime::RuntimeOptions options = snap.options;
  options.dedup_submissions = true;
  return options;
}

}  // namespace

ReplicationStandby::ReplicationStandby(StandbyOptions options)
    : options_(std::move(options)) {}

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
  return poll_until(
      [&] {
        base::MutexLock lock(mu_);
        return stats_.last_commit_slot >= slot;
      },
      timeout_ms);
}

bool ReplicationStandby::wait_promoted(int timeout_ms) const {
  return poll_until([this] { return promoted(); }, timeout_ms);
}

bool ReplicationStandby::wait_failed(int timeout_ms) const {
  return poll_until([this] { return failed(); }, timeout_ms);
}

void ReplicationStandby::corrupt_next_event() {
  corrupt_next_.store(true, std::memory_order_release);
}

bool ReplicationStandby::handle_frame(int fd, const Frame& frame) {
  switch (frame.type) {
    case MessageType::kReplSnapshot: {
      const ReplSnapshot seed = ReplSnapshot::decode(frame.payload);
      const runtime::RuntimeSnapshot snap =
          server::decode_snapshot(seed.image);
      // Reseed = rebuild, configured by the seed alone: restore_snapshot
      // only accepts a fresh runtime, and a diverged mirror has nothing
      // worth keeping anyway.
      std::unique_ptr<runtime::ControllerRuntime> mirror;
      try {
        mirror = std::make_unique<runtime::ControllerRuntime>(
            seed_topology(snap), seed_options(snap));
        for (const runtime::BackendSnapshot& b : snap.backends) {
          mirror->add_postcard_backend(b.options);
        }
        mirror->restore_snapshot(snap);
      } catch (const std::logic_error& e) {
        // A seed the standby cannot build from is a malformed frame: drop
        // the connection like any other, never the run thread.
        throw WireError(std::string("seed snapshot refused: ") + e.what());
      }
      mirror_ = std::move(mirror);
      base::MutexLock lock(mu_);
      stats_.snapshots_applied++;
      return true;
    }
    case MessageType::kReplEvents: {
      ReplEvents batch = ReplEvents::decode(frame.payload);
      // Unseeded: the Hello or the divergence's ReplReseed already asked
      // for a seed, and that snapshot holds every push made before its
      // capture, drained or pending; the watermark filters the rest. So
      // events (and commits, below) are dropped until it lands — asking
      // again would only cost the primary another snapshot.
      if (mirror_ == nullptr) return true;
      // The whole batch is checked before any of it lands: a link event
      // naming a link this topology lacks would index past the mirror's
      // per-link state when it fires.
      for (const runtime::Event& e : batch.events) {
        const std::string error =
            runtime::link_event_error(e.payload, mirror_->num_links());
        if (!error.empty()) {
          throw WireError("replicated event at slot " +
                          std::to_string(e.slot) + " refused: " + error);
        }
      }
      for (runtime::Event& e : batch.events) {
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
      if (mirror_ == nullptr) return true;  // unseeded: see kReplEvents
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
      if (divergence.empty()) {
        if (runtime_fingerprint(mirror_->stats()) != commit.fingerprint) {
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
                          ReplAck{commit.slot}.encode());
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
  std::minstd_rand rng(kJitterSeed);
  const auto alive = [this] {
    return running_.load(std::memory_order_acquire);
  };
  // Waits out the backoff in 2 ms polls, so stop() stays responsive.
  const auto backoff = [&](int failures) {
    poll_until([&] { return !alive(); },
               backoff_ms(failures, options_.backoff_base_ms,
                          options_.backoff_max_ms, rng));
  };

  int failures = 0;
  while (alive()) {
    int fd = -1;
    try {
      // Silence beyond the heartbeat timeout surfaces as WireTimeout from
      // read_frame — the standby's missed-heartbeat detector.
      fd = server::connect_tcp(options_.primary_host, options_.primary_port,
                               options_.heartbeat_timeout_ms);
    } catch (const WireError&) {
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
      server::write_frame(fd, MessageType::kReplHello, ReplHello{}.encode());
      Frame frame;
      while (alive()) {
        if (!server::read_frame(fd, &frame, kReplMaxFrameBytes)) {
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
    sopts.runtime = seed_options(snap);
    sopts.snapshot_path = options_.promoted_snapshot_path;
    auto srv =
        std::make_unique<server::PostcardServer>(seed_topology(snap), sopts);
    for (const runtime::BackendSnapshot& b : snap.backends) {
      srv->add_postcard_backend(b.options);
    }
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
