// Replication chaos: injected divergence must be caught within one slot
// commit and healed by one reseed; submissions racing the primary's slot
// cut must replay without any; a stalled (non-draining) standby must be
// dropped without wedging the primary's slot clock; reconnects and
// standby turnover must reseed cleanly; a link event the standby's
// topology lacks, in an event batch or a seed, is refused where it enters.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <thread>
#include <unistd.h>

#include "replication/primary.h"
#include "replication/standby.h"
#include "repl_test_util.h"
#include "runtime/runtime.h"
#include "server/client.h"
#include "server/server.h"
#include "server/snapshot.h"

namespace postcard::replication {
namespace {

using server::PostcardClient;
using server::PostcardServer;
using server::ServerOptions;

struct ReplicatedPair {
  std::unique_ptr<PostcardServer> server;
  std::unique_ptr<ReplicationPrimary> primary;

  explicit ReplicatedPair(const net::Topology& topology,
                          PrimaryOptions popts = {}) {
    ServerOptions options;
    options.runtime = replicated_runtime_options();
    server = std::make_unique<PostcardServer>(net::Topology(topology), options);
    server->add_postcard_backend();
    popts.heartbeat_every_ms = 50;
    primary = std::make_unique<ReplicationPrimary>(popts);
    primary->attach(*server);
    server->start();
    primary->start();
  }
  ~ReplicatedPair() {
    if (primary) primary->stop();
    if (server) {
      server->request_shutdown();
      server->wait();
    }
  }
};

/// A primary played by the test: a loopback listener whose first accepted
/// standby gets exactly the frames the test writes.
class ScriptedPrimary {
 public:
  ScriptedPrimary() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
        ::listen(listen_fd_, 4) == 0 &&
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
            0) {
      port_ = ntohs(addr.sin_port);
    }
  }
  ~ScriptedPrimary() {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    close_listener();
  }

  int port() const { return port_; }

  /// Accepts the standby and reads its Hello; false on timeout or error.
  bool accept_standby() {
    pollfd p{listen_fd_, POLLIN, 0};
    if (::poll(&p, 1, kWaitMs) != 1) return false;
    conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    if (conn_fd_ < 0) return false;
    timeval tv{kWaitMs / 1000, 0};
    ::setsockopt(conn_fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    server::Frame hello;
    return server::read_frame(conn_fd_, &hello) &&
           hello.type == server::MessageType::kReplHello;
  }

  void send(server::MessageType type, const std::vector<std::uint8_t>& body) {
    server::write_frame(conn_fd_, type, body);
  }

  /// True once the standby closes the connection; false if it keeps it
  /// open past the wait deadline.
  bool standby_hung_up() {
    server::Frame frame;
    try {
      while (server::read_frame(conn_fd_, &frame)) {
      }
    } catch (const server::WireTimeout&) {
      return false;
    } catch (const server::WireError&) {
      // A reset is a hang-up too.
    }
    return true;
  }

  /// With the listener gone, every reconnect is refused at once.
  void close_listener() {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
  }

 private:
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  int port_ = 0;
};

/// A slot-0 seed image of a fresh one-backend runtime on `topology`,
/// altered by `craft` before it is encoded.
std::vector<std::uint8_t> seed_image(
    const net::Topology& topology,
    const std::function<void(runtime::RuntimeSnapshot&)>& craft = {}) {
  runtime::ControllerRuntime seed{net::Topology(topology),
                                  replicated_runtime_options()};
  seed.add_postcard_backend();
  runtime::RuntimeSnapshot snap = seed.capture_snapshot();
  if (craft) craft(snap);
  return ReplSnapshot{server::encode_snapshot(snap)}.encode();
}

TEST(ReplicationChaos, OutOfRangeLinkEventBatchIsRefusedWhole) {
  // A batch whose second event names link 4000 of a 20-link topology: the
  // standby must refuse the whole batch on its malformed-frame path (drop
  // the connection), so the valid arrival ahead of it never lands either.
  const sim::UniformWorkload w(repl_workload(75));
  ScriptedPrimary primary;
  ASSERT_GT(primary.port(), 0);
  ReplicationStandby standby(test_standby_options(primary.port()));
  standby.start();
  ASSERT_TRUE(primary.accept_standby());
  primary.send(server::MessageType::kReplSnapshot, seed_image(w.topology()));

  ReplEvents batch;
  batch.events.push_back({0, 0, runtime::FileArrival{w.batch(0).front()}});
  batch.events.push_back({0, 1, runtime::LinkDown{4000}});
  primary.send(server::MessageType::kReplEvents, batch.encode());
  ASSERT_TRUE(primary.standby_hung_up());

  // The seeded standby promotes once its reconnects are refused, and its
  // state shows that nothing of the batch was applied.
  primary.close_listener();
  ASSERT_TRUE(standby.wait_promoted(kWaitMs));
  const StandbyStats s = standby.stats();
  EXPECT_EQ(s.snapshots_applied, 1);
  EXPECT_EQ(s.events_applied, 0);
  const runtime::RuntimeStats promoted = standby.server()->stats();
  EXPECT_EQ(promoted.admitted, 0);
  EXPECT_EQ(promoted.queue_depth, 0u);
  standby.stop();
}

TEST(ReplicationChaos, OutOfRangeLinkEventInASeedIsRefusedNotFatal) {
  // The same event inside a seed snapshot's pending queue: restore refuses
  // it, and the standby treats that as a malformed frame — it drops the
  // connection and, never seeded, fails loudly instead of crashing or
  // promoting.
  const sim::UniformWorkload w(repl_workload(76));
  ScriptedPrimary primary;
  ASSERT_GT(primary.port(), 0);
  ReplicationStandby standby(test_standby_options(primary.port()));
  standby.start();
  ASSERT_TRUE(primary.accept_standby());
  primary.send(server::MessageType::kReplSnapshot,
               seed_image(w.topology(), [](runtime::RuntimeSnapshot& snap) {
                 snap.pending_events.push_back({2, 0, runtime::LinkDown{4000}});
               }));
  ASSERT_TRUE(primary.standby_hung_up());

  primary.close_listener();
  ASSERT_TRUE(standby.wait_failed(kWaitMs));
  EXPECT_FALSE(standby.promoted());
  EXPECT_EQ(standby.stats().snapshots_applied, 0);
  standby.stop();
}

TEST(ReplicationChaos, SeedNamingTooManyDatacentersIsRefusedNotFatal) {
  // The seed decides the standby's topology, whose dense link index holds
  // n² entries: a crafted datacenter count must be refused before that
  // allocation, on the malformed-frame path, not kill the run thread.
  const sim::UniformWorkload w(repl_workload(77));
  ScriptedPrimary primary;
  ASSERT_GT(primary.port(), 0);
  ReplicationStandby standby(test_standby_options(primary.port()));
  standby.start();
  ASSERT_TRUE(primary.accept_standby());
  primary.send(server::MessageType::kReplSnapshot,
               seed_image(w.topology(), [](runtime::RuntimeSnapshot& snap) {
                 snap.num_datacenters = 1 << 20;
               }));
  ASSERT_TRUE(primary.standby_hung_up());

  primary.close_listener();
  ASSERT_TRUE(standby.wait_failed(kWaitMs));
  EXPECT_FALSE(standby.promoted());
  EXPECT_EQ(standby.stats().snapshots_applied, 0);
  standby.stop();
}

TEST(ReplicationChaos, InjectedDivergenceIsCaughtWithinOneCommitAndReseeded) {
  const sim::UniformWorkload w(repl_workload(71));
  ReplicatedPair pair(w.topology());
  ReplicationStandby standby(test_standby_options(pair.primary->port()));
  standby.start();
  ASSERT_TRUE(wait_standby_connected(*pair.primary));

  PostcardClient client("127.0.0.1", pair.server->port());
  client.submit_batch(w.batch(0));
  client.advance(1);
  ASSERT_TRUE(standby.wait_for_commit(0, kWaitMs));
  const long clean_seeds = standby.stats().snapshots_applied;

  // Corrupt the next replicated arrival: the standby's replay of slot 1
  // MUST digest differently from the primary's commit fingerprint.
  standby.corrupt_next_event();
  client.submit_batch(w.batch(1));
  client.advance(1);

  // Detection happens at that very commit: the standby reports the
  // mismatch and asks for a reseed before any further slot passes.
  ASSERT_TRUE(poll_until([&] {
    const StandbyStats s = standby.stats();
    return s.fingerprint_mismatches >= 1 && s.reseeds_sent >= 1;
  })) << "divergence never detected";
  ASSERT_TRUE(poll_until([&] {
    return pair.primary->stats().reseeds_requested >= 1;
  })) << "reseed request never reached the primary";

  // Recovery: the NEXT slot commit ships a fresh snapshot, and the
  // reseeded mirror tracks the primary's fingerprints again.
  client.submit_batch(w.batch(2));
  client.advance(1);
  ASSERT_TRUE(poll_until([&] {
    return standby.stats().snapshots_applied > clean_seeds;
  })) << "standby was never reseeded";
  client.submit_batch(w.batch(3));
  client.advance(1);
  ASSERT_TRUE(standby.wait_for_commit(3, kWaitMs));
  // One divergence costs one reseed request and one snapshot: while the
  // seed is on its way, the unseeded standby drops events and commits
  // instead of asking again for each frame.
  const StandbyStats healed = standby.stats();
  EXPECT_EQ(healed.fingerprint_mismatches, 1);
  EXPECT_EQ(healed.reseeds_sent, 1);
  EXPECT_EQ(healed.snapshots_applied, clean_seeds + 1);
  EXPECT_EQ(pair.primary->stats().reseeds_requested, 1);
  standby.stop();
}

TEST(ReplicationChaos, SubmissionsRacingTheSlotCutReplayWithoutReseeds) {
  // One client submits a small file every 200 us while another drives 60
  // slots, each with a batch of the workload, so pushes race each slot's
  // cut and solve on the primary. The queue fires a push that loses the
  // race in the next slot and the tap ships that slot, so the mirror cuts
  // every batch where the primary did.
  constexpr int kSlots = 60;
  sim::WorkloadParams params = repl_workload(61);
  params.num_slots = kSlots;
  const sim::UniformWorkload w(params);
  ReplicatedPair pair(w.topology());
  ReplicationStandby standby(test_standby_options(pair.primary->port()));
  standby.start();
  ASSERT_TRUE(wait_standby_connected(*pair.primary));

  // At most this many submissions per slot: a sanitizer build solves
  // slowly enough that an unthrottled submitter grows every batch, and
  // with it the next solve, without end.
  constexpr int kPerSlot = 8;
  std::atomic<bool> done{false};
  std::atomic<long> admitted{0};
  std::thread submitter([&] {
    PostcardClient client("127.0.0.1", pair.server->port());
    int slot = -1;
    int in_slot = 0;
    for (int id = 0; !done.load();) {
      const int now = pair.server->stats().slots_processed;
      if (now != slot) {
        slot = now;
        in_slot = 0;
      }
      if (in_slot < kPerSlot) {
        net::FileRequest f;
        f.id = 1'000'000 + id;  // clear of the workload's ids
        f.source = id % 5;
        f.destination = (id + 1) % 5;
        f.size = 1.0;
        f.max_transfer_slots = 2;
        if (client.submit_file(f).admitted) admitted.fetch_add(1);
        ++id;
        ++in_slot;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  // Start the clock once submissions flow, so the two overlap.
  ASSERT_TRUE(poll_until([&] { return admitted.load() > 0; }));
  {
    PostcardClient driver("127.0.0.1", pair.server->port());
    for (int slot = 0; slot < kSlots; ++slot) {
      driver.submit_batch(w.batch(slot));
      driver.advance(1);
    }
  }
  done.store(true);
  submitter.join();

  ASSERT_TRUE(standby.wait_for_commit(kSlots - 1, kWaitMs))
      << "standby stopped at commit " << standby.stats().last_commit_slot;
  const StandbyStats s = standby.stats();
  EXPECT_EQ(s.fingerprint_mismatches, 0);
  EXPECT_EQ(s.reseeds_sent, 0);
  EXPECT_EQ(s.last_commit_slot, kSlots - 1);
  EXPECT_EQ(pair.primary->stats().reseeds_requested, 0);
  standby.stop();
}

TEST(ReplicationChaos, StalledStandbyIsDroppedSlowNotWedgingTheSlotClock) {
  const sim::UniformWorkload w(repl_workload(72));
  PrimaryOptions popts;
  popts.send_timeout_ms = 300;
  popts.sndbuf_bytes = 2048;  // tiny socket buffer: a non-reader fills it fast
  ReplicatedPair pair(w.topology(), popts);

  PostcardClient client("127.0.0.1", pair.server->port());
  // Pile up pending far-future arrivals so the seed snapshot outgrows the
  // combined socket buffering by a wide margin.
  std::vector<net::FileRequest> future;
  for (int i = 0; i < 4000; ++i) {
    net::FileRequest f;
    f.id = 10000 + i;
    f.source = i % 5;
    f.destination = (i + 1) % 5;
    f.size = 10.0 + (i % 50);
    f.max_transfer_slots = 3;
    f.release_slot = 40 + (i % 5);
    future.push_back(f);
  }
  client.submit_batch(future);

  // A "standby" that connects and then never reads a byte. Its receive
  // buffer is shrunk BEFORE connect (so the window is negotiated small):
  // unread data otherwise parks in the peer's default ~128 KB rcvbuf and
  // the sender never blocks at all.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(pair.primary->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_TRUE(poll_until([&] { return pair.primary->standby_connected(); }));

  // The next commit tries to seed it; the bounded send deadline must trip
  // and DROP the stall instead of blocking the driver forever. advance()
  // returning at all is the no-wedge assertion.
  const auto t0 = std::chrono::steady_clock::now();
  client.advance(1);
  ASSERT_TRUE(poll_until([&] {
    return pair.primary->stats().standbys_dropped_slow >= 1;
  })) << "stalled standby was never dropped";
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            20);
  ::close(fd);

  // A real standby connecting afterwards gets seeded normally. Seeds
  // ship at slot commits only, so the connection must be up before the
  // final advance — otherwise the standby would wait for a commit that
  // never comes.
  ReplicationStandby standby(test_standby_options(pair.primary->port()));
  standby.start();
  ASSERT_TRUE(poll_until([&] { return pair.primary->standby_connected(); }));
  client.advance(1);
  ASSERT_TRUE(standby.wait_for_commit(1, kWaitMs));
  standby.stop();
}

TEST(ReplicationChaos, StandbyTurnoverReseedsEachNewFollower) {
  const sim::UniformWorkload w(repl_workload(73));
  ReplicatedPair pair(w.topology());
  PostcardClient client("127.0.0.1", pair.server->port());

  client.submit_batch(w.batch(0));
  client.advance(1);

  {
    ReplicationStandby first(test_standby_options(pair.primary->port()));
    first.start();
    ASSERT_TRUE(wait_standby_connected(*pair.primary));
    client.submit_batch(w.batch(1));
    client.advance(1);
    ASSERT_TRUE(first.wait_for_commit(1, kWaitMs));
    first.stop();  // clean departure, not a failover
  }

  ReplicationStandby second(test_standby_options(pair.primary->port()));
  second.start();
  // Wait for the primary to accept the second follower itself: until its
  // I/O loop notices the first one left, standby_connected() still reports
  // the departed connection, and a commit shipped into it never reaches
  // the second follower.
  ASSERT_TRUE(poll_until(
      [&] { return pair.primary->stats().standbys_accepted >= 2; }));
  client.submit_batch(w.batch(2));
  client.advance(1);
  ASSERT_TRUE(second.wait_for_commit(2, kWaitMs));
  // Each follower got its own seed; the second one's arrived with the
  // first's state already folded in (snapshot, not replay-from-genesis).
  EXPECT_GE(pair.primary->stats().snapshots_shipped, 2);
  EXPECT_EQ(second.stats().fingerprint_mismatches, 0);
  second.stop();
}

TEST(ReplicationChaos, PartitionedStandbyReconnectsAndResumes) {
  const sim::UniformWorkload w(repl_workload(74));
  ReplicatedPair pair(w.topology());
  StandbyOptions sopts = test_standby_options(pair.primary->port());
  sopts.reconnect_attempts = 100;  // partition heals before attempts run out
  ReplicationStandby standby(sopts);
  standby.start();
  ASSERT_TRUE(wait_standby_connected(*pair.primary));

  PostcardClient client("127.0.0.1", pair.server->port());
  client.submit_batch(w.batch(0));
  client.advance(1);
  ASSERT_TRUE(standby.wait_for_commit(0, kWaitMs));

  // Sever the link WITHOUT stopping either party: the primary keeps one
  // standby, so a second connection evicts the followed one — which sees
  // exactly what a network partition looks like (a hard EOF mid-stream)
  // and must reconnect and get reseeded on its own.
  ASSERT_TRUE(poll_until([&] { return pair.primary->standby_connected(); }));
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(pair.primary->port()));
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    // The primary keeps ONE standby: the new connection evicts the old —
    // the followed standby experiences exactly a partition (hard EOF).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::close(fd);
  }

  // The real standby reconnects on its own, is reseeded, and resumes
  // acking commits.
  ASSERT_TRUE(poll_until([&] { return standby.stats().reconnects >= 1; }))
      << "standby never noticed the partition";
  client.submit_batch(w.batch(1));
  client.advance(1);
  client.submit_batch(w.batch(2));
  client.advance(1);
  ASSERT_TRUE(standby.wait_for_commit(2, kWaitMs));
  EXPECT_GE(standby.stats().snapshots_applied, 2);
  standby.stop();
}

}  // namespace
}  // namespace postcard::replication
