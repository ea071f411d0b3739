// PostcardServer: a long-running TCP front end around ControllerRuntime.
//
// Threading model (see DESIGN.md §11):
//
//   accept thread ──► session thread per connection
//                       │  Submit*  → RequestIngress (thread-safe; a
//                       │             rejection becomes a Backpressure
//                       │             reply, never a dropped connection)
//                       │  QueryPlan / QueryStats → lock-protected reads
//                       │  Snapshot / AdvanceSlot / Shutdown → command
//                       ▼             queue, answered when executed
//                   driver thread — the ONLY caller of tick(),
//                   capture_snapshot() and flush_in_flight(), so state
//                   mutation and snapshotting happen at slot boundaries.
//
// Sessions never touch runtime internals directly: everything that must
// run between ticks travels through the command queue and is executed by
// the driver, which fulfils the command's promise so the session can send
// its reply. A malformed frame (bad version, lying length, truncation,
// unknown type) earns the session an Error reply when the socket still
// works and a loud close — never UB, never a crash (tests/server runs the
// abuse suite under ASan/UBSan).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "runtime/runtime.h"
#include "server/protocol.h"
#include "server/wire.h"

namespace postcard::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0: ephemeral; the bound port is port() after start()
  runtime::RuntimeOptions runtime;
  /// Snapshot target. Written on Shutdown/SIGTERM drain and by Snapshot
  /// requests with an empty path; empty disables the final snapshot.
  std::string snapshot_path;
  /// Also write the snapshot every N processed slots (0 = only on demand).
  int snapshot_every_slots = 0;
  /// Tick the slot clock automatically every this many milliseconds
  /// (0 = slots advance only via AdvanceSlot requests — the mode tests
  /// use, keeping the clock deterministic).
  int slot_every_ms = 0;
  /// Per-session read deadline in milliseconds (SO_RCVTIMEO on the session
  /// socket). A peer that sends nothing for this long — stalled, half-open,
  /// or gone without a FIN — is reaped: the session closes quietly and
  /// bumps sessions_reaped, freeing the thread instead of pinning it
  /// forever. 0 disables (sessions block indefinitely, the historical
  /// behavior tests rely on).
  int session_idle_timeout_ms = 0;
};

class PostcardServer {
 public:
  PostcardServer(net::Topology topology, ServerOptions options);
  ~PostcardServer();

  PostcardServer(const PostcardServer&) = delete;
  PostcardServer& operator=(const PostcardServer&) = delete;

  // --- Setup (before start()) -------------------------------------------

  int add_postcard_backend(core::PostcardOptions options = {});

  /// Restores runtime state from a snapshot file (see snapshot.h). The
  /// backend registration sequence must match the captured server's.
  /// Throws WireError / std::invalid_argument on a bad file or mismatch.
  void restore_from(const std::string& snapshot_path);

  /// Called on the driver thread after every completed tick (explicit
  /// AdvanceSlot and auto-ticks alike) with the slot just committed. The
  /// replication primary hooks here to ship the slot's events and its
  /// divergence fingerprint at exactly the commit boundary. Install before
  /// start(); the hook must not call back into the runtime's driver-only
  /// API (it already runs on the driver).
  void set_post_tick_hook(std::function<void(int)> hook) {
    post_tick_hook_ = std::move(hook);
  }

  /// Queues `task` to run on the driver thread between ticks, as soon as
  /// the driver is free, and returns at once. Any thread may call it, also
  /// before start() (the task then waits for the driver). A task still
  /// queued at the drain is dropped unrun. The replication primary ships a
  /// standby's seed this way. A task runs on the driver, so it may use the
  /// runtime's driver-only API, but must not wait on a command of this
  /// server: the driver would wait on itself.
  void post_to_driver(std::function<void()> task) EXCLUDES(cmd_mu_);

  // --- Lifecycle ---------------------------------------------------------

  /// Binds, listens and spawns the accept + driver threads.
  /// Throws WireError when the socket cannot be bound.
  void start();

  /// The bound TCP port (after start()).
  int port() const { return port_; }

  /// Initiates the graceful drain from any thread (signal handlers set a
  /// flag and call this from main): the driver finishes its current slot,
  /// writes the final snapshot, retires in-flight work, then every session
  /// is unblocked and joined. Idempotent.
  void request_shutdown();

  /// Blocks until the drain completes and every thread is joined.
  void wait();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// True once the graceful drain has completed (final snapshot written,
  /// in-flight work retired) — whether it was triggered by a Shutdown
  /// frame or request_shutdown(). A serving main loop polls this so a
  /// protocol-initiated shutdown also unparks it; wait() then joins the
  /// remaining threads without blocking on slot work.
  bool drained() const { return drained_.load(std::memory_order_acquire); }

  /// Direct runtime access for tests and --metrics-dump on the server side.
  /// stats() is thread-safe; anything else must respect the driver contract.
  runtime::ControllerRuntime& runtime() { return runtime_; }

  /// RuntimeStats with the server's session counters folded in.
  runtime::RuntimeStats stats() const;

 private:
  struct Command {
    enum class Kind { kAdvance, kSnapshot, kShutdown, kTask };
    Kind kind = Kind::kAdvance;
    int slots = 1;             // kAdvance
    std::string path;          // kSnapshot ("" = options_.snapshot_path)
    std::function<void()> task;  // kTask (post_to_driver; nobody waits)
    std::promise<std::string> done;  // error text, empty on success
  };
  struct Session {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void accept_loop();
  void driver_loop();
  void session_loop(Session* session);
  /// Dispatches one decoded frame; returns false when the session must
  /// close (after Shutdown's reply).
  bool handle_frame(int fd, const Frame& frame);
  /// Submits one file (a SubmitFile frame or one SubmitBatch entry) to the
  /// ingress and counts it; returns the verdict to send back.
  SubmitVerdict submit(const net::FileRequest& file);
  std::string enqueue_command(Command::Kind kind, int slots,
                              const std::string& path) EXCLUDES(cmd_mu_);
  /// Executes a drained command on the driver thread; returns error text.
  std::string run_command(Command& cmd);
  std::string write_snapshot(const std::string& path);
  /// Adds one to `counter`, a ServerCounters member.
  void bump(long runtime::ServerCounters::*counter);
  void reply(int fd, MessageType type, const std::vector<std::uint8_t>& payload);
  void close_listener();

  ServerOptions options_;
  runtime::ControllerRuntime runtime_;
  std::function<void(int)> post_tick_hook_;  // driver thread only
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> drained_{false};

  std::thread accept_thread_;
  std::thread driver_thread_;

  base::Mutex cmd_mu_;
  std::condition_variable cmd_cv_;  // waits on cmd_mu_.native()
  std::deque<Command> commands_ GUARDED_BY(cmd_mu_);

  base::Mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_ GUARDED_BY(sessions_mu_);

  // Per-session accounting, one counter per ServerCounters field in
  // kServerFields order, folded into every stats() snapshot.
  std::array<std::atomic<long>,
             std::tuple_size_v<decltype(runtime::kServerFields)>>
      counters_{};
};

}  // namespace postcard::server
