// Integration tests for the Postcard controller, including the paper's
// worked examples: Fig. 1 (routing + scheduling beats direct transfer) and
// the Sec. VII burstiness discussion (store-and-forward doubles the peak on
// a relay path compared to the fluid flow model).
#include "core/postcard.h"

#include <gtest/gtest.h>

#include "flow/baseline.h"

namespace postcard::core {
namespace {

net::FileRequest file(int id, int s, int d, double size, int deadline, int slot) {
  return {id, s, d, size, deadline, slot};
}

/// Fig. 1 topology: D1=0, D2=1, D3=2; prices recovered from the text:
/// a(D2->D3) = 10, a(D2->D1) = 1, a(D1->D3) = 3; ample capacity.
net::Topology fig1_topology() {
  net::Topology t(3);
  t.set_link(1, 2, 1000.0, 10.0);
  t.set_link(1, 0, 1000.0, 1.0);
  t.set_link(0, 2, 1000.0, 3.0);
  // Reverse links exist but are never attractive.
  t.set_link(2, 1, 1000.0, 10.0);
  t.set_link(0, 1, 1000.0, 1.0);
  t.set_link(2, 0, 1000.0, 3.0);
  return t;
}

TEST(Postcard, Fig1MotivatingExample) {
  // 6 MB from D2 to D3 within 3 slots. Direct transfer costs 10 * 2 = 20
  // per interval; the relayed, scheduled plan of Fig. 1(b) costs
  // 1*3 + 3*3 = 12. The LP must find 12 (it is the optimum).
  PostcardController controller(fig1_topology());
  const auto outcome = controller.schedule(0, {file(1, 1, 2, 6.0, 3, 0)});
  ASSERT_EQ(outcome.accepted_ids.size(), 1u);
  EXPECT_NEAR(controller.cost_per_interval(), 12.0, 1e-6);

  // The committed plan is a valid store-and-forward schedule.
  ASSERT_EQ(controller.last_plans().size(), 1u);
  std::string err;
  EXPECT_TRUE(verify_plan(controller.last_plans()[0],
                          file(1, 1, 2, 6.0, 3, 0), controller.topology(),
                          1e-6, &err))
      << err;
}

TEST(Postcard, Fig1DirectWhenDeadlineIsOneSlot) {
  // With T = 1 the relay (2 hops) is impossible: cost = 10 * 6 = 60.
  PostcardController controller(fig1_topology());
  controller.schedule(0, {file(1, 1, 2, 6.0, 1, 0)});
  EXPECT_NEAR(controller.cost_per_interval(), 60.0, 1e-6);
}

TEST(Postcard, BurstinessOnRelayPath) {
  // Sec. VII: file of size 10 over {D2 -> D1 -> D4} within 2 slots.
  // Store-and-forward must move the whole file each hop in one slot:
  // peak per link = 10. The flow model streams at rate 5: peak = 5.
  net::Topology t(3);  // 0 = D2, 1 = D1, 2 = D4
  t.set_link(0, 1, 1000.0, 1.0);
  t.set_link(1, 2, 1000.0, 1.0);

  PostcardController postcard{net::Topology(t)};
  postcard.schedule(0, {file(1, 0, 2, 10.0, 2, 0)});
  EXPECT_NEAR(postcard.charge_state().charged(t.link_index(0, 1)), 10.0, 1e-6);
  EXPECT_NEAR(postcard.charge_state().charged(t.link_index(1, 2)), 10.0, 1e-6);

  flow::FlowBaseline baseline{net::Topology(t)};
  baseline.schedule(0, {file(1, 0, 2, 10.0, 2, 0)});
  EXPECT_NEAR(baseline.charge_state().charged(t.link_index(0, 1)), 5.0, 1e-6);
  EXPECT_NEAR(baseline.charge_state().charged(t.link_index(1, 2)), 5.0, 1e-6);
  // Hence with ample capacity the flow model is cheaper here — the paper's
  // explanation for Figs. 4-5.
  EXPECT_LT(baseline.cost_per_interval(), postcard.cost_per_interval());
}

TEST(Postcard, TimeShiftingOntoPaidLink) {
  // Once a link is paid for X = 10, a later delay-tolerant file re-uses it
  // for free by storing at the source until slots open up.
  net::Topology t(2);
  t.set_link(0, 1, 1000.0, 5.0);
  PostcardController controller{net::Topology(t)};
  controller.schedule(0, {file(1, 0, 1, 10.0, 1, 0)});
  const double paid = controller.cost_per_interval();
  EXPECT_NEAR(paid, 50.0, 1e-6);
  // 20 GB within 2 slots: 10 per slot fits exactly under the paid volume.
  const auto outcome = controller.schedule(1, {file(2, 0, 1, 20.0, 2, 1)});
  ASSERT_EQ(outcome.accepted_ids.size(), 1u);
  EXPECT_NEAR(controller.cost_per_interval(), paid, 1e-6);
}

TEST(Postcard, StorageDisabledForcesImmediateForwarding) {
  // Same scenario; without storage arcs the second file cannot wait, and a
  // 20 GB / 2 slot transfer still fits (10 per slot), so this particular
  // case stays free — but a 1-slot deadline burst must raise the charge.
  PostcardOptions no_storage;
  no_storage.allow_storage = false;
  net::Topology t(2);
  t.set_link(0, 1, 1000.0, 5.0);
  PostcardController controller{net::Topology(t), no_storage};
  EXPECT_EQ(controller.name(), "postcard (no storage)");
  controller.schedule(0, {file(1, 0, 1, 10.0, 1, 0)});
  controller.schedule(1, {file(2, 0, 1, 30.0, 2, 1)});
  // 30 GB in 2 slots -> 15 per slot minimum without storage skew? With
  // storage one could send 10 in slot 1 and 20 in slot 2... but that raises
  // the max to 20. Optimal without storage: even split 15/15 -> X = 15.
  EXPECT_NEAR(controller.charge_state().charged(0), 15.0, 1e-6);
}

TEST(Postcard, SplitsAcrossCheapPathsUnderCapacityPressure) {
  // Capacity 5 per link, file of 10 with deadline 2: the direct link alone
  // cannot carry it; the plan must split or relay, and remain valid.
  net::Topology t(3);
  t.set_link(0, 2, 5.0, 2.0);
  t.set_link(0, 1, 5.0, 1.0);
  t.set_link(1, 2, 5.0, 1.0);
  PostcardController controller{net::Topology(t)};
  const auto outcome = controller.schedule(0, {file(1, 0, 2, 10.0, 2, 0)});
  ASSERT_EQ(outcome.accepted_ids.size(), 1u);
  std::string err;
  EXPECT_TRUE(verify_plan(controller.last_plans()[0], file(1, 0, 2, 10.0, 2, 0),
                          controller.topology(), 1e-6, &err))
      << err;
}

TEST(Postcard, RejectsImpossibleFile) {
  net::Topology t(2);
  t.set_link(0, 1, 5.0, 1.0);
  PostcardController controller{net::Topology(t)};
  const auto outcome = controller.schedule(0, {file(9, 0, 1, 100.0, 2, 0)});
  EXPECT_TRUE(outcome.accepted_ids.empty());
  EXPECT_EQ(outcome.rejected_ids, std::vector<int>{9});
  EXPECT_NEAR(outcome.rejected_volume, 100.0, 1e-9);
}

TEST(Postcard, KeepsFeasibleSubsetWhenOneFileIsImpossible) {
  net::Topology t(2);
  t.set_link(0, 1, 5.0, 1.0);
  PostcardController controller{net::Topology(t)};
  const auto outcome = controller.schedule(
      0, {file(1, 0, 1, 100.0, 2, 0), file(2, 0, 1, 4.0, 1, 0)});
  EXPECT_EQ(outcome.accepted_ids, std::vector<int>{2});
  EXPECT_EQ(outcome.rejected_ids, std::vector<int>{1});
}

TEST(Postcard, MultiFileChargeSharing) {
  // Two files share the cheap link in different slots: the LP staggers them
  // so the peak (and thus the charge) stays at one file's volume.
  net::Topology t(2);
  t.set_link(0, 1, 1000.0, 1.0);
  PostcardController controller{net::Topology(t)};
  controller.schedule(0, {file(1, 0, 1, 10.0, 2, 0), file(2, 0, 1, 10.0, 2, 0)});
  EXPECT_NEAR(controller.charge_state().charged(0), 10.0, 1e-6);
  EXPECT_NEAR(controller.cost_per_interval(), 10.0, 1e-6);
}

}  // namespace
}  // namespace postcard::core
