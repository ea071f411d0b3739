// Real-crash failover: the primary runs in a CHILD PROCESS and dies by
// actual SIGKILL mid-run — no destructors, no goodbye frames, no flushed
// buffers. The standby in the parent must detect the silence, promote,
// and finish the workload with the cost series an unfailed run produces.
//
// The child is this very binary re-executed with --repl-child (spawned
// via posix_spawn, not fork: TSAN does not support multithreaded fork
// without exec). This file therefore supplies its own main() and links
// plain gtest instead of gtest_main.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <spawn.h>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#include "replication/failover_client.h"
#include "replication/primary.h"
#include "replication/standby.h"
#include "repl_test_util.h"
#include "server/client.h"
#include "server/server.h"

extern char** environ;

namespace postcard::replication {
namespace {

constexpr std::uint64_t kCrashSeed = 91;

/// Child-process body: a replicated primary that parks until SIGKILLed.
/// Publishes "<server_port> <repl_port>" via atomic rename so the parent
/// never reads a torn file.
int repl_child_main(const char* ports_path) {
  const sim::UniformWorkload w(repl_workload(kCrashSeed));
  server::ServerOptions options;
  options.runtime = replicated_runtime_options();
  server::PostcardServer server{net::Topology(w.topology()), options};
  server.add_postcard_backend();
  PrimaryOptions popts;
  popts.heartbeat_every_ms = 50;
  ReplicationPrimary primary(popts);
  primary.attach(server);
  server.start();
  primary.start();

  const std::string tmp = std::string(ports_path) + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return 3;
  std::fprintf(f, "%d %d\n", server.port(), primary.port());
  std::fclose(f);
  if (std::rename(tmp.c_str(), ports_path) != 0) return 4;

  // Park. SIGKILL is the only way out the test uses; the time cap stops a
  // leak if the parent dies first.
  for (int i = 0; i < 1200; ++i) {
    ::usleep(100 * 1000);
  }
  return 5;  // parent never killed us: fail loudly
}

struct ChildPrimary {
  pid_t pid = -1;
  int server_port = 0;
  int repl_port = 0;

  explicit ChildPrimary(const std::string& ports_path) {
    std::remove(ports_path.c_str());
    const char* exe = "/proc/self/exe";
    char arg0[] = "/proc/self/exe";
    char arg1[] = "--repl-child";
    std::vector<char> arg2(ports_path.begin(), ports_path.end());
    arg2.push_back('\0');
    char* argv[] = {arg0, arg1, arg2.data(), nullptr};
    if (::posix_spawn(&pid, exe, nullptr, nullptr, argv, environ) != 0) {
      pid = -1;
      return;
    }
    // Wait for the port publication.
    for (int i = 0; i < kWaitMs / 10; ++i) {
      std::FILE* f = std::fopen(ports_path.c_str(), "r");
      if (f != nullptr) {
        const int got = std::fscanf(f, "%d %d", &server_port, &repl_port);
        std::fclose(f);
        if (got == 2) break;
      }
      ::usleep(10 * 1000);
    }
    std::remove(ports_path.c_str());
  }

  void kill_hard() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }

  ~ChildPrimary() { kill_hard(); }
};

TEST(ReplicationCrash, SigkilledPrimaryFailsOverBitForBit) {
  const sim::UniformWorkload w(repl_workload(kCrashSeed));
  const int kill_at = 4;

  // Reference: unfailed run, in-process.
  runtime::RuntimeStats ref_stats;
  {
    server::ServerOptions options;
    options.runtime = replicated_runtime_options();
    server::PostcardServer server{net::Topology(w.topology()), options};
    server.add_postcard_backend();
    server.start();
    server::PostcardClient client("127.0.0.1", server.port());
    for (int slot = 0; slot < w.num_slots(); ++slot) {
      client.submit_batch(w.batch(slot));
      client.advance(1);
    }
    client.shutdown();
    server.wait();
    ref_stats = server.stats();
  }

  const std::string ports_path = testing::TempDir() + "repl_crash_ports_" +
                                 std::to_string(::getpid());
  ChildPrimary child(ports_path);
  ASSERT_GT(child.pid, 0) << "posix_spawn failed";
  ASSERT_GT(child.server_port, 0) << "child never published its ports";
  ASSERT_GT(child.repl_port, 0);

  ReplicationStandby standby(test_standby_options(child.repl_port));
  standby.start();
  // Seeds ship at slot commits only: before driving any, make sure the
  // child primary has accepted the standby (its first heartbeat proves
  // it), or under load every commit could pass before the accept.
  ASSERT_TRUE(poll_until([&] { return standby.stats().heartbeats_seen >= 1; }))
      << "child primary never heartbeat the standby";

  {
    server::PostcardClient client("127.0.0.1", child.server_port);
    for (int slot = 0; slot < kill_at; ++slot) {
      client.submit_batch(w.batch(slot));
      client.advance(1);
    }
  }
  ASSERT_TRUE(standby.wait_for_commit(kill_at - 1, kWaitMs));

  // The real thing: SIGKILL, mid-slot, no warning.
  child.kill_hard();

  ASSERT_TRUE(standby.wait_promoted(kWaitMs))
      << "standby did not take over after SIGKILL";
  ASSERT_FALSE(standby.failed());

  FailoverClientOptions fopts;
  fopts.endpoints = {{"127.0.0.1", child.server_port},
                     {"127.0.0.1", standby.serve_port()}};
  fopts.io_timeout_ms = 2000;
  FailoverClient client(fopts);
  for (int slot = kill_at; slot < w.num_slots(); ++slot) {
    client.submit_batch(w.batch(slot));
    client.advance_to(slot + 1);
  }
  const runtime::RuntimeStats got_stats = client.query_stats();

  ASSERT_EQ(got_stats.backends.size(), ref_stats.backends.size());
  const runtime::BackendStats& ref = ref_stats.backends[0];
  const runtime::BackendStats& got = got_stats.backends[0];
  ASSERT_EQ(got.cost_series.size(), ref.cost_series.size());
  for (std::size_t i = 0; i < ref.cost_series.size(); ++i) {
    EXPECT_EQ(got.cost_series[i], ref.cost_series[i]) << "slot " << i;
  }
  EXPECT_TRUE(got.audit_armed);
  EXPECT_EQ(got.audit_violations, 0);
  EXPECT_EQ(got_stats.admitted, ref_stats.admitted);
  EXPECT_EQ(got.accepted_files, ref.accepted_files);
  EXPECT_EQ(got.rejected_files, ref.rejected_files);
  standby.stop();
}

}  // namespace

int run_child(const char* ports_path) { return repl_child_main(ports_path); }

}  // namespace postcard::replication

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--repl-child") == 0) {
    return postcard::replication::run_child(argv[2]);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
