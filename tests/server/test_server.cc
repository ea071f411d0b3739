// End-to-end server tests over real TCP sockets: submission and explicit
// backpressure, batch verdicts, slot advancement, plan and stats queries,
// snapshot-on-request, graceful shutdown, and the full server-level
// kill-and-restore equivalence (a restarted server restored from the
// snapshot finishes the workload with the identical cost series).
#include "server/server.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cstdio>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <unistd.h>

#include "server/client.h"
#include "server/metrics.h"
#include "server/snapshot.h"
#include "sim/workload.h"

namespace postcard::server {
namespace {

sim::WorkloadParams small_workload(std::uint64_t seed) {
  sim::WorkloadParams p;
  p.num_datacenters = 5;
  p.link_capacity = 100.0;
  p.cost_min = 1.0;
  p.cost_max = 10.0;
  p.files_per_slot_min = 1;
  p.files_per_slot_max = 3;
  p.size_min = 10.0;
  p.size_max = 80.0;
  p.deadline_min = 1;
  p.deadline_max = 3;
  p.num_slots = 10;
  p.seed = seed;
  return p;
}

std::string temp_snapshot_path(const char* tag) {
  return testing::TempDir() + "postcard_server_" + tag + "_" +
         std::to_string(::getpid()) + ".psnp";
}

/// Every metric name format_metrics writes for a runtime with one backend
/// and a non-empty cost series.
constexpr const char* kMetricNames[] = {
    "postcard_slots_processed",
    "postcard_queue_depth",
    "postcard_ingress_submitted",
    "postcard_ingress_admitted",
    "postcard_ingress_rejected",
    "postcard_ingress_rejected_volume_gb",
    "postcard_link_events",
    "postcard_slot_latency_count",
    "postcard_slot_latency_mean_seconds",
    "postcard_slot_latency_p99_seconds",
    "postcard_slot_latency_max_seconds",
    "postcard_solve_latency_count",
    "postcard_solve_latency_mean_seconds",
    "postcard_solve_latency_p99_seconds",
    "postcard_solve_latency_max_seconds",
    "postcard_server_sessions_opened",
    "postcard_server_sessions_closed",
    "postcard_server_frames_received",
    "postcard_server_frames_sent",
    "postcard_server_submits",
    "postcard_server_submit_admitted",
    "postcard_server_backpressure_replies",
    "postcard_server_queries",
    "postcard_server_protocol_errors",
    "postcard_server_snapshots_written",
    "postcard_server_slots_advanced",
    "postcard_server_sessions_reaped",
    "postcard_backend_accepted_files",
    "postcard_backend_accepted_volume_gb",
    "postcard_backend_rejected_files",
    "postcard_backend_rejected_volume_gb",
    "postcard_backend_delivered_files",
    "postcard_backend_delivered_volume_gb",
    "postcard_backend_replans",
    "postcard_backend_replanned_volume_gb",
    "postcard_backend_failed_files",
    "postcard_backend_failed_volume_gb",
    "postcard_backend_lp_iterations",
    "postcard_backend_lp_solves",
    "postcard_backend_warm_accepts",
    "postcard_backend_cold_starts",
    "postcard_backend_warm_accept_rate",
    "postcard_backend_pricing_seconds",
    "postcard_backend_master_seconds",
    "postcard_backend_resumed_solves",
    "postcard_backend_charge_reduce_violations",
    "postcard_backend_rung_full_slots",
    "postcard_backend_rung_truncated_slots",
    "postcard_backend_rung_greedy_files",
    "postcard_backend_carryover_files",
    "postcard_backend_carryover_volume_gb",
    "postcard_backend_carryover_entered_files",
    "postcard_backend_carryover_entered_volume_gb",
    "postcard_backend_degraded_slots",
    "postcard_backend_degraded_cost_delta",
    "postcard_backend_solver_failures",
    "postcard_backend_gave_up_files",
    "postcard_backend_gave_up_volume_gb",
    "postcard_backend_audit_armed",
    "postcard_backend_audit_checks",
    "postcard_backend_audit_violations",
    "postcard_backend_audit_seconds",
    "postcard_backend_cost_per_interval",
};

/// The metric name of each line of a metrics text, labels stripped.
std::vector<std::string> metric_names(const std::string& text) {
  std::vector<std::string> names;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    names.push_back(line.substr(0, line.find_first_of("{ ")));
  }
  return names;
}

TEST(Server, SubmitAdvanceQueryShutdown) {
  const sim::UniformWorkload w(small_workload(31));
  PostcardServer server{net::Topology(w.topology()), ServerOptions{}};
  server.add_postcard_backend();
  server.start();
  ASSERT_GT(server.port(), 0);

  PostcardClient client("127.0.0.1", server.port());

  // A feasible file is admitted with its release slot.
  net::FileRequest file;
  file.id = 1;
  file.source = 0;
  file.destination = 1;
  file.size = 50.0;
  file.max_transfer_slots = 2;
  const SubmitVerdict ok = client.submit_file(file);
  EXPECT_TRUE(ok.admitted);
  EXPECT_EQ(ok.slot, 0);

  // An impossible file earns an explicit Backpressure reply with the
  // admission controller's reason — the connection stays open.
  net::FileRequest huge = file;
  huge.id = 2;
  huge.size = 1e9;
  const SubmitVerdict rejected = client.submit_file(huge);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_FALSE(rejected.reason.empty());

  // Batch: one good, one structurally invalid (source == destination).
  net::FileRequest good = file;
  good.id = 3;
  net::FileRequest bad = file;
  bad.id = 4;
  bad.destination = bad.source;
  const std::vector<SubmitVerdict> verdicts = client.submit_batch({good, bad});
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_TRUE(verdicts[0].admitted);
  EXPECT_FALSE(verdicts[1].admitted);

  // Tick one slot: the admitted files get solved and committed.
  EXPECT_EQ(client.advance(1), 1);

  // The committed plan is queryable while in flight (deadline 2 slots, so
  // after 1 tick it has not retired yet).
  const PlanReply plan = client.query_plan(0, 1);
  EXPECT_TRUE(plan.found);
  EXPECT_EQ(plan.request.id, 1);
  EXPECT_FALSE(plan.plan.transfers.empty());
  EXPECT_FALSE(client.query_plan(0, 999).found);
  EXPECT_FALSE(client.query_plan(7, 1).found);  // backend out of range

  // Stats: ingress and server counters agree with what this session did.
  const runtime::RuntimeStats stats = client.query_stats();
  EXPECT_EQ(stats.slots_processed, 1);
  EXPECT_EQ(stats.server.submits, 4);
  EXPECT_EQ(stats.server.submit_admitted, 2);
  EXPECT_EQ(stats.server.backpressure_replies, 2);
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.server.sessions_opened, 1);
  EXPECT_EQ(stats.server.slots_advanced, 1);
  ASSERT_EQ(stats.backends.size(), 1u);
  EXPECT_TRUE(stats.backends[0].audit_armed);

  // The metrics text renders the same snapshot, one line per name below
  // and no other line.
  const std::string metrics = format_metrics(stats);
  EXPECT_NE(metrics.find("postcard_server_submits 4"), std::string::npos);
  EXPECT_NE(metrics.find("postcard_backend_accepted_files{backend="),
            std::string::npos);
  const std::vector<std::string> written = metric_names(metrics);
  for (const char* name : kMetricNames) {
    EXPECT_EQ(std::count(written.begin(), written.end(), name), 1) << name;
  }
  EXPECT_EQ(written.size(), std::size(kMetricNames));

  client.shutdown();
  server.wait();
  EXPECT_FALSE(server.running());
}

/// A connected TCP socket to the server with nothing spoken on it yet.
int connect_raw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

TEST(Server, IdleSessionsAreReapedWithoutDisturbingActiveOnes) {
  const sim::UniformWorkload w(small_workload(36));
  ServerOptions options;
  options.session_idle_timeout_ms = 100;
  PostcardServer server{net::Topology(w.topology()), options};
  server.add_postcard_backend();
  server.start();

  // A connection that never sends a byte: exactly what a wedged or
  // half-open client looks like. Without the reaper it would pin a
  // session thread forever.
  const int idle_fd = connect_raw(server.port());

  // An active client on the same server, polling throughout: its own
  // session must survive the reaper sweeps.
  PostcardClient client("127.0.0.1", server.port());
  long reaped = 0;
  for (int i = 0; i < 3000 && reaped == 0; ++i) {
    reaped = client.query_stats().server.sessions_reaped;
    ::usleep(10 * 1000);
  }
  EXPECT_GE(reaped, 1) << "idle session was never reaped";
  ::close(idle_fd);

  // The active session kept its connection and still does real work.
  client.submit_batch(w.batch(0));
  client.advance(1);
  const runtime::RuntimeStats stats = client.query_stats();
  EXPECT_EQ(stats.backends[0].cost_series.size(), 1u);
  EXPECT_NE(format_metrics(stats).find("postcard_server_sessions_reaped"),
            std::string::npos);

  client.shutdown();
  server.wait();
}

TEST(Server, EveryServerCounterCountsThroughALiveServer) {
  // Drives each of the twelve server counters above zero through a live
  // server, then reads every one back through the kServerFields list: a
  // counter that stats() forgot to fold in would read 0 here.
  const sim::UniformWorkload w(small_workload(37));
  ServerOptions options;
  options.session_idle_timeout_ms = 100;
  PostcardServer server{net::Topology(w.topology()), options};
  server.add_postcard_backend();
  server.start();

  PostcardClient client("127.0.0.1", server.port());
  net::FileRequest file;
  file.id = 1;
  file.source = 0;
  file.destination = 1;
  file.size = 50.0;
  file.max_transfer_slots = 2;
  EXPECT_TRUE(client.submit_file(file).admitted);
  net::FileRequest huge = file;
  huge.id = 2;
  huge.size = 1e9;
  EXPECT_FALSE(client.submit_file(huge).admitted);  // backpressure
  EXPECT_EQ(client.advance(1), 1);
  EXPECT_TRUE(client.query_plan(0, 1).found);
  const std::string path = temp_snapshot_path("counters");
  client.snapshot(path);

  // A malformed frame costs its session: a protocol error and a close.
  const int garbage_fd = connect_raw(server.port());
  const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef,
                                             0xde, 0xad, 0xbe, 0xef};
  write_all(garbage_fd, garbage.data(), garbage.size());
  // A session that never speaks is reaped after the idle timeout.
  const int idle_fd = connect_raw(server.port());

  runtime::ServerCounters counters;
  for (int i = 0; i < 3000; ++i) {
    client.query_stats();  // keeps this session inside its idle timeout
    counters = server.stats().server;
    if (counters.sessions_reaped > 0 && counters.sessions_closed > 1) break;
    ::usleep(10 * 1000);
  }
  runtime::for_each_field(runtime::kServerFields, [&](const auto& field) {
    EXPECT_GT(counters.*field.member, 0) << field.metric;
  });
  ::close(garbage_fd);
  ::close(idle_fd);
  client.shutdown();
  server.wait();
  std::remove(path.c_str());
}

TEST(Server, ShutdownWritesFinalSnapshotAndDrains) {
  const sim::UniformWorkload w(small_workload(32));
  const std::string path = temp_snapshot_path("final");
  ServerOptions options;
  options.snapshot_path = path;
  PostcardServer server{net::Topology(w.topology()), options};
  server.add_postcard_backend();
  server.start();

  PostcardClient client("127.0.0.1", server.port());
  for (int slot = 0; slot < 3; ++slot) {
    for (net::FileRequest f : w.batch(slot)) client.submit_file(f);
    client.advance(1);
  }
  // The ShutdownReply certifies the drain: snapshot written, in-flight
  // work retired.
  client.shutdown();
  server.wait();

  const runtime::RuntimeSnapshot snap = read_snapshot_file(path);
  EXPECT_EQ(snap.next_slot, 3);
  ASSERT_EQ(snap.backends.size(), 1u);
  EXPECT_EQ(snap.backends[0].stats.name, "postcard");
  std::remove(path.c_str());
}

TEST(Server, KillAndRestartReproducesTheUninterruptedRun) {
  const sim::UniformWorkload w(small_workload(33));
  const int kill_at = 4;

  // Uninterrupted server run over the whole workload.
  std::vector<double> reference_series;
  {
    PostcardServer server{net::Topology(w.topology()), ServerOptions{}};
    server.add_postcard_backend();
    server.start();
    PostcardClient client("127.0.0.1", server.port());
    for (int slot = 0; slot < w.num_slots(); ++slot) {
      client.submit_batch(w.batch(slot));
      client.advance(1);
    }
    client.shutdown();
    server.wait();
    const runtime::RuntimeStats stats = server.stats();
    reference_series = stats.backends[0].cost_series;
  }

  // Interrupted: drain at `kill_at` (graceful shutdown writes the final
  // snapshot), then a NEW server process-equivalent restores and finishes.
  const std::string path = temp_snapshot_path("restart");
  {
    ServerOptions options;
    options.snapshot_path = path;
    PostcardServer server{net::Topology(w.topology()), options};
    server.add_postcard_backend();
    server.start();
    PostcardClient client("127.0.0.1", server.port());
    for (int slot = 0; slot < kill_at; ++slot) {
      client.submit_batch(w.batch(slot));
      client.advance(1);
    }
    client.shutdown();
    server.wait();
  }
  std::vector<double> restarted_series;
  {
    PostcardServer server{net::Topology(w.topology()), ServerOptions{}};
    server.add_postcard_backend();
    server.restore_from(path);
    server.start();
    PostcardClient client("127.0.0.1", server.port());
    for (int slot = kill_at; slot < w.num_slots(); ++slot) {
      client.submit_batch(w.batch(slot));
      client.advance(1);
    }
    client.shutdown();
    server.wait();
    restarted_series = server.stats().backends[0].cost_series;
  }

  ASSERT_EQ(restarted_series.size(), reference_series.size());
  for (std::size_t i = 0; i < reference_series.size(); ++i) {
    EXPECT_EQ(restarted_series[i], reference_series[i]) << "slot " << i;
  }
  std::remove(path.c_str());
}

TEST(Server, SnapshotRequestWritesWhereAsked) {
  const sim::UniformWorkload w(small_workload(34));
  PostcardServer server{net::Topology(w.topology()), ServerOptions{}};
  server.add_postcard_backend();
  server.start();
  PostcardClient client("127.0.0.1", server.port());

  client.submit_batch(w.batch(0));
  client.advance(2);
  const std::string path = temp_snapshot_path("explicit");
  EXPECT_EQ(client.snapshot(path), path);
  EXPECT_EQ(read_snapshot_file(path).next_slot, 2);

  // No configured path and none given: a truthful failure, not a crash.
  EXPECT_THROW(client.snapshot(), WireError);

  client.shutdown();
  server.wait();
  std::remove(path.c_str());
}

TEST(Server, SignalStyleShutdownFromAnotherThread) {
  // request_shutdown() is what the SIGINT/SIGTERM path in
  // examples/postcard_server.cpp calls: it must drain and join cleanly
  // even with a client connected and mid-conversation.
  const sim::UniformWorkload w(small_workload(35));
  PostcardServer server{net::Topology(w.topology()), ServerOptions{}};
  server.add_postcard_backend();
  server.start();
  PostcardClient client("127.0.0.1", server.port());
  client.submit_batch(w.batch(0));
  client.advance(1);

  server.request_shutdown();
  server.wait();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().slots_processed, 1);
}

}  // namespace
}  // namespace postcard::server
