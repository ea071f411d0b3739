// Failure injection: LinkDown invalidates committed in-flight plans; the
// runtime uncommits their unexecuted tail, replans the stranded volume and
// accounts every accepted byte as delivered, replanned-then-delivered, or
// loudly failed — never silently dropped.
#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/postcard.h"

namespace postcard::runtime {
namespace {

constexpr double kTol = 1e-6;

// Diamond with a detour: the cheap path 0 -> 1 -> 3 carries everything;
// when link 1 -> 3 dies, stranded volume can still detour via 2.
net::Topology diamond() {
  net::Topology t(4);
  t.set_link(0, 1, 100.0, 1.0);   // cheap first hop
  t.set_link(1, 3, 100.0, 1.0);   // cheap second hop (the one we kill)
  t.set_link(1, 2, 100.0, 5.0);   // detour hop 1
  t.set_link(2, 3, 100.0, 5.0);   // detour hop 2
  t.set_link(0, 3, 100.0, 50.0);  // direct, prohibitively expensive
  return t;
}

// Chain 0 -> 1 -> 2 with no detour: killing 1 -> 2 makes delivery
// impossible, the file must fail loudly.
net::Topology chain() {
  net::Topology t(3);
  t.set_link(0, 1, 100.0, 1.0);
  t.set_link(1, 2, 100.0, 1.0);
  return t;
}

net::FileRequest file(int id, int src, int dst, double size, int deadline,
                      int release) {
  return net::FileRequest{id, src, dst, size, deadline, release};
}

TEST(RuntimeFailures, LinkDownReplansStrandedVolumeAndMeetsDeadline) {
  ControllerRuntime runtime{diamond(), RuntimeOptions{}};
  runtime.add_postcard_backend();

  // 12 GB, 3 slots: the controller routes 0 -> 1 -> 3 (cost 2/GB vs 50
  // direct); nothing can reach 3 before the end of slot 1.
  ASSERT_TRUE(runtime.ingress().submit(file(1, 0, 3, 12.0, 3, 0)).admitted);
  runtime.fail_link(1, 1);  // link index 1 is 1 -> 3 (insertion order)
  runtime.run(4);

  const RuntimeStats stats = runtime.stats();
  const BackendStats& b = stats.backends[0];
  EXPECT_EQ(b.accepted_files, 1);
  EXPECT_NEAR(b.accepted_volume, 12.0, kTol);
  EXPECT_GE(b.replans, 1);
  EXPECT_GT(b.replanned_volume, 0.0);
  EXPECT_EQ(b.failed_files, 0) << "detour exists; nothing may fail";
  // Every accepted byte is delivered by the deadline.
  EXPECT_NEAR(b.delivered_volume, 12.0, kTol);
  EXPECT_NEAR(b.failed_volume + b.delivered_volume, b.accepted_volume, kTol);
}

TEST(RuntimeFailures, LinkDownWithoutDetourFailsLoudly) {
  ControllerRuntime runtime{chain(), RuntimeOptions{}};
  runtime.add_postcard_backend();

  ASSERT_TRUE(runtime.ingress().submit(file(1, 0, 2, 10.0, 2, 0)).admitted);
  const int doomed_link = 1;  // 1 -> 2 (insertion order)
  runtime.fail_link(1, doomed_link);
  runtime.run(3);

  const RuntimeStats stats = runtime.stats();
  const BackendStats& b = stats.backends[0];
  EXPECT_EQ(b.accepted_files, 1);
  // The stranded volume could not be replanned: loud failure, exact
  // accounting, no silent drop.
  EXPECT_GE(b.replans + b.failed_files, 1);
  EXPECT_GT(b.failed_volume, 0.0);
  EXPECT_NEAR(b.failed_volume + b.delivered_volume, b.accepted_volume, kTol);
}

TEST(RuntimeFailures, UncommitRollsBackSpeculativeCharge) {
  // The plan's unexecuted tail raised X on the killed path; after the
  // failure that speculative charge must be rolled back (the ISP never saw
  // the volume), so the final cost prices only traffic that actually flowed
  // or was replanned.
  ControllerRuntime runtime{chain(), RuntimeOptions{}};
  runtime.add_postcard_backend();
  ASSERT_TRUE(runtime.ingress().submit(file(1, 0, 2, 10.0, 2, 0)).admitted);
  runtime.fail_link(1, 1);
  runtime.run(3);

  const auto& policy = runtime.policy(0);
  // Link 1 (1 -> 2) carried nothing: its committed tail was uncommitted and
  // the replan could not reroute, so X_12 must be back at zero.
  EXPECT_NEAR(policy.charge_state().charged(1), 0.0, kTol);
  // Link 0 (0 -> 1) really carried the first hop during slot 0.
  EXPECT_GT(policy.charge_state().charged(0), 0.0);
}

TEST(RuntimeFailures, LinkUpRestoresCapacityForNewArrivals) {
  ControllerRuntime runtime{chain(), RuntimeOptions{}};
  runtime.add_postcard_backend();

  runtime.fail_link(0, 1);     // 1 -> 2 down from slot 0
  runtime.restore_link(2, 1);  // back up at slot 2

  // While down, a 1-slot file over the dead link is rejected by the solve.
  ASSERT_TRUE(runtime.ingress().submit(file(1, 1, 2, 10.0, 1, 0)).admitted);
  // After recovery an identical file is accepted again.
  ASSERT_TRUE(runtime.ingress().submit(file(2, 1, 2, 10.0, 1, 2)).admitted);
  runtime.run(3);

  const RuntimeStats stats = runtime.stats();
  const BackendStats& b = stats.backends[0];
  EXPECT_EQ(b.rejected_files, 1);
  EXPECT_EQ(b.accepted_files, 1);
  EXPECT_NEAR(b.delivered_volume, 10.0, kTol);
}

TEST(RuntimeFailures, CapacityChangeThrottlesFutureSolves) {
  ControllerRuntime runtime{chain(), RuntimeOptions{}};
  runtime.add_postcard_backend();

  runtime.change_capacity(0, 1, 5.0);  // 1 -> 2 shrinks to 5 GB/slot
  ASSERT_TRUE(runtime.ingress().submit(file(1, 1, 2, 10.0, 1, 0)).admitted);
  ASSERT_TRUE(runtime.ingress().submit(file(2, 1, 2, 4.0, 1, 1)).admitted);
  runtime.run(2);

  const RuntimeStats stats = runtime.stats();
  const BackendStats& b = stats.backends[0];
  EXPECT_EQ(b.rejected_files, 1);  // 10 GB cannot fit 5 GB/slot with T=1
  EXPECT_EQ(b.accepted_files, 1);  // 4 GB can
}

TEST(RuntimeFailures, OutOfRangeLinkEventsAreRefusedWhereTheyEnter) {
  // The tick indexes its per-link state by the event's link before the
  // topology sees it, so each helper must refuse what the tick cannot
  // apply — a link past the 12 of a 4-DC complete overlay, or a capacity
  // the LP cannot price — and queue nothing.
  const net::Topology t =
      net::Topology::complete(4, 100.0, [](int, int) { return 1.0; });
  ASSERT_EQ(t.num_links(), 12);
  ControllerRuntime runtime{net::Topology(t), RuntimeOptions{}};
  runtime.add_postcard_backend();
  for (int link : {4000, 12, -1}) {
    EXPECT_THROW(runtime.fail_link(0, link), std::invalid_argument) << link;
    EXPECT_THROW(runtime.restore_link(0, link), std::invalid_argument) << link;
    EXPECT_THROW(runtime.change_capacity(0, link, 50.0), std::invalid_argument)
        << link;
  }
  for (double capacity : {-1.0, std::nan(""),
                          std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(runtime.change_capacity(0, 3, capacity),
                 std::invalid_argument)
        << capacity;
  }
  EXPECT_EQ(runtime.events().depth(), 0u);

  // The last link and a zero capacity are in range and still apply.
  runtime.change_capacity(0, 11, 0.0);
  runtime.fail_link(0, 11);
  runtime.restore_link(1, 11);
  runtime.run(2);
  EXPECT_EQ(runtime.stats().link_events, 3);
}

}  // namespace
}  // namespace postcard::runtime
