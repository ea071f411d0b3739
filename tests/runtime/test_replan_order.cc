// Ledger-order determinism: Backend::plans is a std::map keyed by request
// id, so every walk that commits state — the invalidate_plans re-request
// sweep (which draws synthetic ids as it goes), retire_completed's stats
// accumulation, and capture_snapshot's serialization — sees ascending id
// order regardless of how entries were inserted. These tests pin that
// property with ids mixing small submission ids and synthetic-range ids
// (>= kSyntheticIdBase), the exact mix a replay-after-failover produces and
// the one where hash-bucket order diverges hardest from value order.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/runtime.h"
#include "server/snapshot.h"

namespace postcard::runtime {
namespace {

// Diamond with a detour (mirrors test_runtime_failures): the cheap path
// 0 -> 1 -> 3 carries everything; when link 1 -> 3 dies, stranded volume
// can still detour via 2, so invalidated plans are re-requested rather
// than failed.
net::Topology diamond() {
  net::Topology t(4);
  t.set_link(0, 1, 100.0, 1.0);   // cheap first hop
  t.set_link(1, 3, 100.0, 1.0);   // cheap second hop (the one we kill)
  t.set_link(1, 2, 100.0, 5.0);   // detour hop 1
  t.set_link(2, 3, 100.0, 5.0);   // detour hop 2
  t.set_link(0, 3, 100.0, 50.0);  // direct, prohibitively expensive
  return t;
}

net::FileRequest file(int id, int src, int dst, double size, int deadline,
                      int release) {
  return net::FileRequest{id, src, dst, size, deadline, release};
}

constexpr int kBase = 1 << 28;  // runtime's synthetic-id base

// Submission order is deliberately NOT id order, and the id magnitudes
// straddle the synthetic base so identity-hash bucket order (id mod
// bucket count) interleaves them differently than value order.
const int kIds[] = {4, 9, 2, kBase + 6, kBase + 1};

std::vector<int> plan_ids(const BackendSnapshot& bs) {
  std::vector<int> ids;
  for (const PlanLedgerEntry& e : bs.plans) ids.push_back(e.request.id);
  return ids;
}

// Zeroes the wall-clock telemetry (latency histograms, solve-seconds
// counters) that legitimately differs between two runs of identical
// logical state, so the remaining snapshot bytes must match exactly.
RuntimeSnapshot scrub_timing(RuntimeSnapshot snap) {
  snap.slot_latency = LatencyHistogram{};
  snap.solve_latency = LatencyHistogram{};
  for (BackendSnapshot& bs : snap.backends) {
    bs.stats.pricing_seconds = 0.0;
    bs.stats.master_seconds = 0.0;
    bs.stats.audit_seconds = 0.0;
  }
  return snap;
}

// Five multi-slot files committed in slot 0, captured mid-flight: the
// serialized plan ledger must ascend by request id even though submission
// order (and hence ledger insertion order) was shuffled.
TEST(ReplanOrder, SnapshotPlanLedgerAscendsById) {
  ControllerRuntime runtime{diamond(), RuntimeOptions{}};
  runtime.add_postcard_backend();
  for (int id : kIds) {
    ASSERT_TRUE(runtime.ingress().submit(file(id, 0, 3, 30.0, 5, 0)).admitted)
        << "id " << id;
  }
  runtime.tick();  // run() would flush_in_flight(); tick() keeps the ledger

  const RuntimeSnapshot snap = runtime.capture_snapshot();
  ASSERT_EQ(snap.backends.size(), 1u);
  const std::vector<int> ids = plan_ids(snap.backends[0]);
  ASSERT_GE(ids.size(), 3u) << "plans must still be in flight after slot 0";
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "duplicate id in snapshot ledger";
}

// The load-bearing test: two runtimes restored from the SAME snapshot with
// the plan-ledger vector in opposite orders must behave identically through
// a link failure — same re-request sweep, same synthetic-id draws, same
// double-accumulation order in the stats, and finally identical snapshot
// bytes. Under a hash ledger, insertion order could leak into all four.
TEST(ReplanOrder, RestoreOrderNeverLeaksIntoReplanOrSnapshotBytes) {
  ControllerRuntime seed{diamond(), RuntimeOptions{}};
  seed.add_postcard_backend();
  for (int id : kIds) {
    ASSERT_TRUE(seed.ingress().submit(file(id, 0, 3, 30.0, 5, 0)).admitted);
  }
  seed.tick();
  const RuntimeSnapshot snap = seed.capture_snapshot();
  ASSERT_GE(snap.backends[0].plans.size(), 3u);

  RuntimeSnapshot reversed = snap;
  std::reverse(reversed.backends[0].plans.begin(),
               reversed.backends[0].plans.end());

  ControllerRuntime a{diamond(), RuntimeOptions{}};
  a.add_postcard_backend();
  a.restore_snapshot(snap);
  ControllerRuntime b{diamond(), RuntimeOptions{}};
  b.add_postcard_backend();
  b.restore_snapshot(reversed);

  for (ControllerRuntime* r : {&a, &b}) {
    r->fail_link(1, 1);  // link index 1 is 1 -> 3 (insertion order)
    for (int slot = 1; slot < 6; ++slot) r->tick();
  }

  const RuntimeStats sa = a.stats();
  const RuntimeStats sb = b.stats();
  ASSERT_GE(sa.backends[0].replans, 1) << "link-down must trigger a replan";
  EXPECT_EQ(sa.backends[0].replans, sb.backends[0].replans);
  EXPECT_EQ(sa.backends[0].delivered_volume, sb.backends[0].delivered_volume);
  EXPECT_EQ(sa.backends[0].failed_volume, sb.backends[0].failed_volume);

  const std::vector<std::uint8_t> bytes_a =
      server::encode_snapshot(scrub_timing(a.capture_snapshot()));
  const std::vector<std::uint8_t> bytes_b =
      server::encode_snapshot(scrub_timing(b.capture_snapshot()));
  EXPECT_EQ(bytes_a, bytes_b)
      << "ledger insertion order leaked into committed state";
}

}  // namespace
}  // namespace postcard::runtime
