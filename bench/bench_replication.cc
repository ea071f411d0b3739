// Replication costs an operator actually cares about (src/replication):
//
//   * ReplFailoverTime — primary killed abruptly mid-run; measures the
//     wall time from the kill to the standby serving (heartbeat silence
//     detection + reconnect exhaustion + mirror snapshot + server start).
//   * ReplCatchupReplay — the standby mirror's deterministic replay rate,
//     in slots/second: how fast a reseeded follower chews through a
//     backlog of committed slots.
//   * ReplSlotBaseline / ReplSlotWithStandby — mean slot-advance latency
//     without and with an attached, seeded standby; the difference is the
//     steady-state shipping overhead (tap + event frames + commit
//     fingerprint on the driver thread).
//
// BENCH_replication.json feeds the trajectory gate
// (scripts/summarize_benches.py --check-trajectory via run_all.sh):
// failover time and slot latencies gate on the 1.5x _ms rule.
//
// Build & run:  cmake --build build && ./build/bench/bench_replication
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "replication/primary.h"
#include "replication/standby.h"
#include "runtime/runtime.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/workload.h"

namespace postcard::bench {
namespace {

using Clock = std::chrono::steady_clock;

sim::WorkloadParams repl_bench_workload(std::uint64_t seed, int slots) {
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
  p.num_slots = slots;
  p.seed = seed;
  return p;
}

runtime::RuntimeOptions replicated_options() {
  runtime::RuntimeOptions o;
  o.dedup_submissions = true;
  return o;
}

template <typename Pred>
bool poll_until(Pred&& pred, int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

void ReplFailoverTime(benchmark::State& state) {
  const sim::UniformWorkload w(repl_bench_workload(7, 10));
  std::vector<double> failover_ms;
  for (auto _ : state) {
    server::ServerOptions sopts;
    sopts.runtime = replicated_options();
    auto server = std::make_unique<server::PostcardServer>(
        net::Topology(w.topology()), sopts);
    server->add_postcard_backend();
    replication::PrimaryOptions popts;
    popts.heartbeat_every_ms = 50;
    replication::ReplicationPrimary primary(popts);
    primary.attach(*server);
    server->start();
    primary.start();

    replication::StandbyOptions stopts;
    stopts.primary_port = primary.port();
    stopts.heartbeat_timeout_ms = 100;
    stopts.reconnect_attempts = 1;
    stopts.backoff_base_ms = 10;
    stopts.backoff_max_ms = 20;
    replication::ReplicationStandby standby(stopts);
    standby.start();

    {
      server::PostcardClient client("127.0.0.1", server->port());
      for (int slot = 0; slot < 3; ++slot) {
        client.submit_batch(w.batch(slot));
        client.advance(1);
      }
    }
    standby.wait_for_commit(2, 30000);

    // The measured span: primary dies with no goodbye, standby notices,
    // exhausts its reconnects and comes up serving.
    const Clock::time_point t0 = Clock::now();
    primary.kill_abruptly();
    server->request_shutdown();
    server->wait();
    primary.stop();
    server.reset();
    standby.wait_promoted(30000);
    failover_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    standby.stop();
  }
  state.counters["failover_mean_ms"] = mean(failover_ms);
  record_json_metric("repl_failover_mean_ms", mean(failover_ms));
}

void ReplCatchupReplay(benchmark::State& state) {
  // Exactly the work a reseeded standby does per backlog slot: the
  // deterministic replay the mirror runs between snapshot and live tail.
  const sim::UniformWorkload w(repl_bench_workload(8, 40));
  std::vector<double> slots_per_sec;
  for (auto _ : state) {
    runtime::ControllerRuntime mirror{net::Topology(w.topology()),
                                      replicated_options()};
    mirror.add_postcard_backend();
    const Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(mirror.replay(w));
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    slots_per_sec.push_back(static_cast<double>(w.num_slots()) / secs);
  }
  state.counters["catchup_slots_per_sec"] = mean(slots_per_sec);
  record_json_metric("repl_catchup_slots_per_sec", mean(slots_per_sec));
}

double g_baseline_slot_ms = 0.0;

void ReplSlotBaseline(benchmark::State& state) {
  const sim::UniformWorkload w(repl_bench_workload(9, 1000));
  server::ServerOptions sopts;
  sopts.runtime = replicated_options();
  server::PostcardServer server{net::Topology(w.topology()), sopts};
  server.add_postcard_backend();
  server.start();
  server::PostcardClient client("127.0.0.1", server.port());

  std::vector<double> slot_ms;
  int slot = 0;
  for (auto _ : state) {
    client.submit_batch(w.batch(slot++ % w.num_slots()));
    const Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(client.advance(1));
    slot_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  server.request_shutdown();
  server.wait();
  g_baseline_slot_ms = mean(slot_ms);
  state.counters["slot_mean_ms"] = g_baseline_slot_ms;
  record_json_metric("repl_slot_baseline_mean_ms", g_baseline_slot_ms);
}

void ReplSlotWithStandby(benchmark::State& state) {
  const sim::UniformWorkload w(repl_bench_workload(9, 1000));
  server::ServerOptions sopts;
  sopts.runtime = replicated_options();
  server::PostcardServer server{net::Topology(w.topology()), sopts};
  server.add_postcard_backend();
  replication::PrimaryOptions popts;
  popts.heartbeat_every_ms = 50;
  replication::ReplicationPrimary primary(popts);
  primary.attach(server);
  server.start();
  primary.start();

  replication::StandbyOptions stopts;
  stopts.primary_port = primary.port();
  replication::ReplicationStandby standby(stopts);
  standby.start();

  server::PostcardClient client("127.0.0.1", server.port());
  // Seed the standby before measuring: steady-state shipping only.
  client.advance(1);
  poll_until([&] { return standby.stats().snapshots_applied >= 1; }, 30000);

  std::vector<double> slot_ms;
  int slot = 0;
  for (auto _ : state) {
    client.submit_batch(w.batch(slot++ % w.num_slots()));
    const Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(client.advance(1));
    slot_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  standby.stop();
  primary.stop();
  server.request_shutdown();
  server.wait();

  const double with_standby = mean(slot_ms);
  state.counters["slot_mean_ms"] = with_standby;
  record_json_metric("repl_slot_with_standby_mean_ms", with_standby);
  // Negative deltas are measurement noise; report shipping overhead as a
  // floor-at-zero so the trajectory gate sees a stable small number.
  const double overhead = with_standby - g_baseline_slot_ms;
  record_json_metric("repl_shipping_overhead_ms",
                     overhead > 0.0 ? overhead : 0.0);
}

BENCHMARK(ReplFailoverTime)->Iterations(3)->UseRealTime();
BENCHMARK(ReplCatchupReplay)->Iterations(3)->UseRealTime();
BENCHMARK(ReplSlotBaseline)->UseRealTime();
BENCHMARK(ReplSlotWithStandby)->UseRealTime();

}  // namespace
}  // namespace postcard::bench

POSTCARD_BENCHMARK_MAIN_WITH_JSON("replication");
