#include "server/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <sys/socket.h>
#include <unistd.h>

#include "server/protocol.h"
#include "server/snapshot.h"

namespace postcard::server {

namespace {

/// Sanity bound on one AdvanceSlot request; a session asking for more is
/// malforming, not planning.
constexpr int kMaxSlotsPerAdvance = 1 << 20;

/// Upper bound on files in one SubmitBatch frame.
constexpr std::size_t kMaxBatchFiles = 100000;

constexpr int kListenBacklog = 64;

using Counters = runtime::ServerCounters;

}  // namespace

PostcardServer::PostcardServer(net::Topology topology, ServerOptions options)
    : options_(std::move(options)),
      runtime_(std::move(topology), options_.runtime) {}

PostcardServer::~PostcardServer() {
  if (started_.load(std::memory_order_acquire)) {
    request_shutdown();
    wait();
  }
}

int PostcardServer::add_postcard_backend(core::PostcardOptions options) {
  return runtime_.add_postcard_backend(std::move(options));
}

void PostcardServer::restore_from(const std::string& snapshot_path) {
  runtime_.restore_snapshot(read_snapshot_file(snapshot_path));
}

void PostcardServer::start() {
  listen_fd_ = listen_tcp(options_.host, options_.port, kListenBacklog, &port_);
  started_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  driver_thread_ = std::thread([this] { driver_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void PostcardServer::request_shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  cmd_cv_.notify_all();
}

void PostcardServer::close_listener() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void PostcardServer::wait() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (driver_thread_.joinable()) driver_thread_.join();
  // shutdown() unblocks the accept loop (accept returns EINVAL on Linux);
  // the fd itself — and the listen_fd_ member the loop reads — is only
  // released after the accept thread joins, so no thread races the write.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  close_listener();
  {
    base::MutexLock lock(sessions_mu_);
    for (auto& s : sessions_) {
      // Unblock sessions parked in recv(); they observe EOF and exit.
      if (s->fd >= 0) ::shutdown(s->fd, SHUT_RD);
    }
  }
  for (;;) {
    std::unique_ptr<Session> victim;
    {
      base::MutexLock lock(sessions_mu_);
      if (sessions_.empty()) break;
      victim = std::move(sessions_.back());
      sessions_.pop_back();
    }
    if (victim->thread.joinable()) victim->thread.join();
    if (victim->fd >= 0) ::close(victim->fd);
  }
  running_.store(false, std::memory_order_release);
}

runtime::RuntimeStats PostcardServer::stats() const {
  runtime::RuntimeStats s = runtime_.stats();
  std::size_t i = 0;
  runtime::for_each_field(runtime::kServerFields, [&](const auto& field) {
    s.server.*field.member = counters_[i++].load(std::memory_order_relaxed);
  });
  return s;
}

void PostcardServer::bump(long Counters::*counter) {
  std::size_t i = 0;
  runtime::for_each_field(runtime::kServerFields, [&](const auto& field) {
    if (field.member == counter) {
      counters_[i].fetch_add(1, std::memory_order_relaxed);
    }
    ++i;
  });
}

// --- Accept + session side ------------------------------------------------

void PostcardServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed during shutdown, or fatal — stop accepting
    }
    if (shutdown_requested_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    // Arm the idle reaper: recv() on this session returns EAGAIN after
    // the deadline, which read_exact maps to WireTimeout.
    set_socket_timeout(fd, SO_RCVTIMEO, options_.session_idle_timeout_ms);
    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session* raw = session.get();
    bump(&Counters::sessions_opened);
    {
      base::MutexLock lock(sessions_mu_);
      // Reap finished sessions so a long-lived server with churning
      // clients does not accumulate dead threads.
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        if ((*it)->finished.load(std::memory_order_acquire)) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          if ((*it)->fd >= 0) ::close((*it)->fd);
          it = sessions_.erase(it);
        } else {
          ++it;
        }
      }
      sessions_.push_back(std::move(session));
    }
    raw->thread = std::thread([this, raw] { session_loop(raw); });
  }
}

void PostcardServer::session_loop(Session* session) {
  const int fd = session->fd;
  try {
    Frame frame;
    while (read_frame(fd, &frame, kDefaultMaxFrameBytes)) {
      bump(&Counters::frames_received);
      if (!handle_frame(fd, frame)) break;
    }
  } catch (const WireTimeout&) {
    // Idle-session reaper: the peer sent nothing (or stalled mid-frame)
    // for session_idle_timeout_ms. Not a protocol violation — close
    // quietly without an Error frame and free the thread.
    bump(&Counters::sessions_reaped);
  } catch (const WireError& e) {
    bump(&Counters::protocol_errors);
    std::cerr << "postcard_server: closing session: " << e.what() << "\n";
    try {
      reply(fd, MessageType::kError, ErrorReply{e.what()}.encode());
    } catch (const WireError&) {
      // Socket already dead; the close below is all that is left.
    }
  }
  // Signal EOF to the peer now; the fd itself is closed by the accept
  // loop's reaper or by wait(), after this thread is joined.
  ::shutdown(fd, SHUT_RDWR);
  bump(&Counters::sessions_closed);
  session->finished.store(true, std::memory_order_release);
}

SubmitVerdict PostcardServer::submit(const net::FileRequest& file) {
  bump(&Counters::submits);
  const runtime::AdmissionResult result = runtime_.ingress().submit(file);
  if (!result.admitted) {
    bump(&Counters::backpressure_replies);
  } else if (!result.duplicate) {
    // A dedup hit is acknowledged as success but is not a fresh
    // admission — submit_admitted counts files entering the system.
    bump(&Counters::submit_admitted);
  }
  return SubmitVerdict{result.admitted, result.slot, result.reason,
                       result.duplicate};
}

void PostcardServer::reply(int fd, MessageType type,
                           const std::vector<std::uint8_t>& payload) {
  write_frame(fd, type, payload);
  bump(&Counters::frames_sent);
}

bool PostcardServer::handle_frame(int fd, const Frame& frame) {
  switch (frame.type) {
    case MessageType::kSubmitFile: {
      const SubmitReply out{
          submit(SubmitFileRequest::decode(frame.payload).file)};
      reply(fd,
            out.verdict.admitted ? MessageType::kSubmitReply
                                 : MessageType::kBackpressure,
            out.encode());
      return true;
    }
    case MessageType::kSubmitBatch: {
      const SubmitBatchRequest req = SubmitBatchRequest::decode(frame.payload);
      if (req.files.size() > kMaxBatchFiles) {
        throw WireError("batch of " + std::to_string(req.files.size()) +
                        " files exceeds limit of " +
                        std::to_string(kMaxBatchFiles));
      }
      BatchReply out;
      out.verdicts.reserve(req.files.size());
      for (const net::FileRequest& file : req.files) {
        out.verdicts.push_back(submit(file));
      }
      reply(fd, MessageType::kBatchReply, out.encode());
      return true;
    }
    case MessageType::kQueryPlan: {
      const QueryPlanRequest req = QueryPlanRequest::decode(frame.payload);
      bump(&Counters::queries);
      PlanReply out;
      out.found =
          runtime_.query_plan(req.backend, req.file_id, &out.plan, &out.request);
      reply(fd, MessageType::kPlanReply, out.encode());
      return true;
    }
    case MessageType::kQueryStats: {
      ByteReader r(frame.payload);
      r.require_done();
      bump(&Counters::queries);
      StatsReply out;
      out.stats = stats();
      reply(fd, MessageType::kStatsReply, out.encode());
      return true;
    }
    case MessageType::kSnapshot: {
      const SnapshotRequest req = SnapshotRequest::decode(frame.payload);
      const std::string target =
          req.path.empty() ? options_.snapshot_path : req.path;
      SnapshotReply out;
      if (target.empty()) {
        out.ok = false;
        out.message = "no snapshot path configured and none requested";
      } else {
        const std::string err =
            enqueue_command(Command::Kind::kSnapshot, 0, target);
        out.ok = err.empty();
        out.message = err.empty() ? target : err;
      }
      reply(fd, MessageType::kSnapshotReply, out.encode());
      return true;
    }
    case MessageType::kAdvanceSlot: {
      const AdvanceSlotRequest req = AdvanceSlotRequest::decode(frame.payload);
      if (req.slots < 1 || req.slots > kMaxSlotsPerAdvance) {
        throw WireError("AdvanceSlot count " + std::to_string(req.slots) +
                        " outside [1, " + std::to_string(kMaxSlotsPerAdvance) +
                        "]");
      }
      const std::string err =
          enqueue_command(Command::Kind::kAdvance, req.slots, "");
      if (!err.empty()) {
        reply(fd, MessageType::kError, ErrorReply{err}.encode());
        return true;
      }
      AdvanceReply out;
      out.next_slot = runtime_.current_slot();
      reply(fd, MessageType::kAdvanceReply, out.encode());
      return true;
    }
    case MessageType::kShutdown: {
      ByteReader r(frame.payload);
      r.require_done();
      // The promise resolves only after the drain (final snapshot written,
      // in-flight work retired), so the reply certifies a completed drain.
      enqueue_command(Command::Kind::kShutdown, 0, "");
      reply(fd, MessageType::kShutdownReply, {});
      return false;
    }
    default:
      throw WireError("unknown or unexpected message type " +
                      std::to_string(static_cast<int>(frame.type)));
  }
}

std::string PostcardServer::enqueue_command(Command::Kind kind, int slots,
                                            const std::string& path) {
  std::future<std::string> done;
  {
    base::MutexLock lock(cmd_mu_);
    if (drained_.load(std::memory_order_acquire)) {
      return "server is shutting down";
    }
    Command cmd;
    cmd.kind = kind;
    cmd.slots = slots;
    cmd.path = path;
    done = cmd.done.get_future();
    commands_.push_back(std::move(cmd));
  }
  cmd_cv_.notify_all();
  return done.get();
}

void PostcardServer::post_to_driver(std::function<void()> task) {
  {
    base::MutexLock lock(cmd_mu_);
    if (drained_.load(std::memory_order_acquire)) return;
    Command cmd;
    cmd.kind = Command::Kind::kTask;
    cmd.task = std::move(task);
    commands_.push_back(std::move(cmd));
  }
  cmd_cv_.notify_all();
}

// --- Driver side ----------------------------------------------------------

std::string PostcardServer::write_snapshot(const std::string& path) {
  try {
    write_snapshot_file(path, runtime_.capture_snapshot());
  } catch (const std::exception& e) {
    return e.what();
  }
  bump(&Counters::snapshots_written);
  return "";
}

std::string PostcardServer::run_command(Command& cmd) {
  switch (cmd.kind) {
    case Command::Kind::kAdvance:
      try {
        for (int i = 0; i < cmd.slots; ++i) {
          runtime_.tick();
          bump(&Counters::slots_advanced);
          // Replication: ship the committed slot (events + fingerprint)
          // at exactly the commit boundary, before anything else can
          // interleave with the next tick.
          if (post_tick_hook_) post_tick_hook_(runtime_.current_slot() - 1);
          if (options_.snapshot_every_slots > 0 &&
              !options_.snapshot_path.empty() &&
              runtime_.current_slot() % options_.snapshot_every_slots == 0) {
            const std::string err = write_snapshot(options_.snapshot_path);
            if (!err.empty()) {
              std::cerr << "postcard_server: periodic snapshot failed: " << err
                        << "\n";
            }
          }
        }
      } catch (const std::exception& e) {
        return std::string("tick failed: ") + e.what();
      }
      return "";
    case Command::Kind::kSnapshot:
      return write_snapshot(cmd.path);
    case Command::Kind::kShutdown:
      shutdown_requested_.store(true, std::memory_order_release);
      return "";
    case Command::Kind::kTask:
      // Nobody waits on a task's promise, so its failure is reported here.
      try {
        cmd.task();
      } catch (const std::exception& e) {
        std::cerr << "postcard_server: driver task failed: " << e.what()
                  << "\n";
        return e.what();
      }
      return "";
  }
  return "unreachable";
}

void PostcardServer::driver_loop() NO_THREAD_SAFETY_ANALYSIS {
  using Clock = std::chrono::steady_clock;
  Clock::time_point next_auto_tick = Clock::now();
  if (options_.slot_every_ms > 0) {
    next_auto_tick += std::chrono::milliseconds(options_.slot_every_ms);
  }
  // Shutdown commands drained before the drain completes: their promises
  // resolve only once the final snapshot and flush are done.
  std::vector<std::promise<std::string>> shutdown_promises;

  for (;;) {
    Command cmd;
    bool have_cmd = false;
    {
      std::unique_lock<std::mutex> lock(cmd_mu_.native());
      const auto wake = [this] {
        return !commands_.empty() ||
               shutdown_requested_.load(std::memory_order_acquire);
      };
      if (options_.slot_every_ms > 0) {
        cmd_cv_.wait_until(lock, next_auto_tick, wake);
      } else {
        cmd_cv_.wait_for(lock, std::chrono::milliseconds(50), wake);
      }
      if (!commands_.empty()) {
        cmd = std::move(commands_.front());
        commands_.pop_front();
        have_cmd = true;
      }
    }

    if (have_cmd) {
      if (cmd.kind == Command::Kind::kShutdown) {
        run_command(cmd);  // sets shutdown_requested_
        shutdown_promises.push_back(std::move(cmd.done));
      } else {
        cmd.done.set_value(run_command(cmd));
      }
      continue;  // drain queued commands before sleeping again
    }

    if (shutdown_requested_.load(std::memory_order_acquire)) break;

    if (options_.slot_every_ms > 0 && Clock::now() >= next_auto_tick) {
      Command auto_tick;
      auto_tick.kind = Command::Kind::kAdvance;
      auto_tick.slots = 1;
      const std::string err = run_command(auto_tick);
      if (!err.empty()) {
        std::cerr << "postcard_server: auto tick failed: " << err << "\n";
      }
      next_auto_tick = Clock::now() +
                       std::chrono::milliseconds(options_.slot_every_ms);
    }
  }

  // Graceful drain: final snapshot first (it must capture the in-flight
  // ledger as the restart will see it), then retire in-flight work into
  // the delivery stats for the final QueryStats/metrics readers.
  if (!options_.snapshot_path.empty()) {
    const std::string err = write_snapshot(options_.snapshot_path);
    if (!err.empty()) {
      std::cerr << "postcard_server: final snapshot failed: " << err << "\n";
    }
  }
  runtime_.flush_in_flight();
  drained_.store(true, std::memory_order_release);

  for (std::promise<std::string>& p : shutdown_promises) p.set_value("");
  // Fail whatever raced in after the drain decision; their sessions get a
  // truthful error instead of hanging on a promise nobody will fulfil.
  std::deque<Command> leftover;
  {
    base::MutexLock lock(cmd_mu_);
    leftover.swap(commands_);
  }
  for (Command& c : leftover) c.done.set_value("server is shutting down");
}

}  // namespace postcard::server
