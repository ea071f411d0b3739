// Mutation tests for the plan auditor (src/audit): each test seeds exactly
// one class of paper-invariant violation into an otherwise valid plan or
// charge state and asserts the auditor reports that class — and, where the
// mutation is isolatable, ONLY that class. A detector that cannot tell its
// violation classes apart is as useless as one that misses them.
#include "audit/audit.h"

#include <gtest/gtest.h>

#include "audit/flow_audit.h"
#include "charging/charge_state.h"
#include "core/plan.h"
#include "flow/baseline.h"
#include "net/topology.h"

namespace postcard::audit {
namespace {

// D0 -> D1 -> D2 chain, capacity 20 GB/slot per link.
net::Topology chain_topology(double capacity = 20.0) {
  net::Topology t(3);
  t.set_link(0, 1, capacity, 1.0);
  t.set_link(1, 2, capacity, 1.0);
  return t;
}

net::FileRequest two_hop_file() {
  net::FileRequest f;
  f.id = 7;
  f.source = 0;
  f.destination = 2;
  f.size = 10.0;
  f.max_transfer_slots = 2;
  f.release_slot = 0;
  return f;
}

// The valid reference plan: slot 0 moves the file D0->D1, slot 1 D1->D2.
core::FilePlan two_hop_plan(const net::Topology& t) {
  core::FilePlan plan;
  plan.file_id = 7;
  plan.transfers.push_back({0, 0, 1, 10.0, t.link_index(0, 1)});
  plan.transfers.push_back({1, 1, 2, 10.0, t.link_index(1, 2)});
  return plan;
}

// Charge state matching the reference plan's commits.
charging::ChargeState committed_state(const net::Topology& t,
                                      const core::FilePlan& plan) {
  charging::ChargeState charge(t.num_links());
  for (const core::Transfer& tr : plan.transfers) {
    // The ledger itself rejects negative volumes, so the negative-volume
    // mutation stays a plan-level defect for the auditor to catch.
    if (!tr.storage() && tr.volume > 0.0) {
      charge.commit(tr.link, tr.slot, tr.volume);
    }
  }
  return charge;
}

AuditReport audit(const net::Topology& t, const net::FileRequest& f,
                  const core::FilePlan& plan) {
  const charging::ChargeState charge = committed_state(t, plan);
  return audit_slot_plans(0, {{f, &plan}}, t, charge);
}

// Every violation in `report` is of class `cls`, and there is at least one.
void expect_exactly(const AuditReport& report, ViolationClass cls) {
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.count(cls), 1) << report.summary();
  EXPECT_EQ(report.count(cls), static_cast<long>(report.violations.size()))
      << report.summary();
}

TEST(AuditMutations, ValidPlanPassesCleanly) {
  const net::Topology t = chain_topology();
  const AuditReport report = audit(t, two_hop_file(), two_hop_plan(t));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.files_checked, 1);
  EXPECT_EQ(report.transfers_checked, 2);
}

TEST(AuditMutations, DroppedConservationUnitIsFlowConservation) {
  const net::Topology t = chain_topology();
  core::FilePlan plan = two_hop_plan(t);
  // D1 forwards 10 GB in slot 1 but only ever received 8: the slot-0 hop
  // lost 2 GB. Both re-simulation checks that fire (moves > held, and the
  // unforwarded holding) are conservation violations.
  plan.transfers[0].volume = 8.0;
  expect_exactly(audit(t, two_hop_file(), plan),
                 ViolationClass::kFlowConservation);
}

TEST(AuditMutations, ExceededArcCapacityIsArcCapacity) {
  // Same plan, but the links only carry 5 GB/slot: each 10 GB hop
  // oversubscribes its arc (eq. 9). The plan itself conserves flow.
  const net::Topology t = chain_topology(/*capacity=*/5.0);
  const core::FilePlan plan = two_hop_plan(t);
  const AuditReport report = audit(t, two_hop_file(), plan);
  expect_exactly(report, ViolationClass::kArcCapacity);
  EXPECT_EQ(report.count(ViolationClass::kArcCapacity), 2);
}

TEST(AuditMutations, TransferPastDeadlineIsDeadline) {
  const net::Topology t = chain_topology();
  const net::FileRequest f = two_hop_file();
  core::FilePlan plan = two_hop_plan(t);
  // A spurious transfer at slot 2 = release + T_k, the first slot eq. 10
  // forces to zero. The in-window plan still delivers everything, so the
  // out-of-window traffic is the only defect.
  plan.transfers.push_back({2, 0, 1, 5.0, t.link_index(0, 1)});
  expect_exactly(audit(t, f, plan), ViolationClass::kDeadline);
}

TEST(AuditMutations, NegativeVolumeIsNonNegativity) {
  const net::Topology t = chain_topology();
  core::FilePlan plan = two_hop_plan(t);
  // An LP-rounding failure mode: a negative component masked by a larger
  // positive one on the same arc. Aggregate flow still conserves and
  // delivers, so only nonnegativity fires.
  plan.transfers.push_back({0, 0, 1, 2.0, t.link_index(0, 1)});
  plan.transfers.push_back({0, 0, 1, -2.0, t.link_index(0, 1)});
  expect_exactly(audit(t, two_hop_file(), plan),
                 ViolationClass::kNonNegativity);
}

TEST(AuditMutations, StoredRemainderIsDemandSatisfaction) {
  const net::Topology t = chain_topology();
  core::FilePlan plan;
  plan.file_id = 7;
  // 8 of 10 GB make the two hops; 2 GB sit in storage at the source until
  // the deadline. Conservation holds at every node (everything held is
  // stored), but the file is under-delivered and the remainder stranded.
  plan.transfers.push_back({0, 0, 1, 8.0, t.link_index(0, 1)});
  plan.transfers.push_back({0, 0, 0, 2.0, -1});
  plan.transfers.push_back({1, 1, 2, 8.0, t.link_index(1, 2)});
  plan.transfers.push_back({1, 0, 0, 2.0, -1});
  expect_exactly(audit(t, two_hop_file(), plan),
                 ViolationClass::kDemandSatisfaction);
}

TEST(AuditMutations, WrongLinkIndexIsUnknownLink) {
  const net::Topology t = chain_topology();
  core::FilePlan plan = two_hop_plan(t);
  // The transfer claims the D1->D2 link while moving D0->D1 volume.
  plan.transfers[0].link = t.link_index(1, 2);
  expect_exactly(audit(t, two_hop_file(), plan),
                 ViolationClass::kUnknownLink);
}

TEST(AuditMutations, OverUncommitIsChargeLedger) {
  const net::Topology t = chain_topology();
  charging::ChargeState charge(t.num_links());
  charge.commit(0, 0, 5.0);
  // The rollback path asks for more volume than the slot ever held: the
  // recorder counts the mismatch, and the auditor surfaces it.
  charge.uncommit(0, 0, 8.0);
  const AuditReport report = audit_charge_state(charge, t);
  expect_exactly(report, ViolationClass::kChargeLedger);
}

TEST(AuditMutations, DesyncedSeriesIsChargeConsistency) {
  const net::Topology t = chain_topology();
  // X_ij on link 0 is 7 (slot 1). A series write behind ChargeState's back
  // that moves the series maximum away from X_ij must be reported.
  const auto desynced = [&t](double slot1_volume) {
    charging::ChargeState charge(t.num_links());
    charge.commit(0, 0, 5.0);
    charge.commit(0, 1, 7.0);
    charge.commit(1, 0, 3.0);
    EXPECT_TRUE(audit_charge_state(charge, t).ok());
    charge.mutable_recorder_for_test().corrupt_series_for_test(0, 1,
                                                               slot1_volume);
    return audit_charge_state(charge, t);
  };
  // Raised: the series maximum climbs above X_ij.
  expect_exactly(desynced(999.0), ViolationClass::kChargeConsistency);
  // Lowered: the maximum slot drops below X_ij; the series maximum is now
  // slot 0's 5 GB.
  expect_exactly(desynced(1.0), ViolationClass::kChargeConsistency);
}

TEST(AuditMutations, ConsistentChargeStatePasses) {
  const net::Topology t = chain_topology();
  charging::ChargeState charge(t.num_links());
  charge.commit(0, 0, 5.0);
  charge.uncommit(0, 0, 5.0);
  charge.commit(1, 2, 4.0);
  EXPECT_TRUE(audit_charge_state(charge, t).ok());
}

// ---- Flow-assignment auditor (audit/flow_audit.h) ----------------------

net::FileRequest flow_file() {
  net::FileRequest f;
  f.id = 11;
  f.source = 0;
  f.destination = 2;
  f.size = 12.0;
  f.max_transfer_slots = 2;
  f.release_slot = 0;
  return f;
}

flow::FlowAssignment flow_assignment(const net::Topology& t) {
  flow::FlowAssignment a;
  a.file_id = 11;
  a.rate = 6.0;  // 12 GB over 2 slots
  a.start_slot = 0;
  a.duration = 2;
  a.link_rates.emplace_back(t.link_index(0, 1), 6.0);
  a.link_rates.emplace_back(t.link_index(1, 2), 6.0);
  return a;
}

AuditReport audit_flow(const net::Topology& t, const net::FileRequest& f,
                       const flow::FlowAssignment& a) {
  charging::ChargeState charge(t.num_links());
  for (const auto& [link, rate] : a.link_rates) {
    for (int n = a.start_slot; n < a.start_slot + a.duration; ++n) {
      if (link >= 0 && link < t.num_links() && rate > 0.0) {
        charge.commit(link, n, rate);
      }
    }
  }
  return audit_flow_assignments(0, {{f, &a}}, t, charge);
}

TEST(AuditMutations, ValidFlowAssignmentPasses) {
  const net::Topology t = chain_topology();
  const AuditReport report = audit_flow(t, flow_file(), flow_assignment(t));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(AuditMutations, FlowOutlivingDeadlineIsDeadline) {
  const net::Topology t = chain_topology();
  flow::FlowAssignment a = flow_assignment(t);
  a.duration = 3;  // lives one slot past T_k = 2
  // rate * duration now over-delivers, which is fine; the long lifetime is
  // the defect. (Capacity still holds: 6 GB/slot on 20 GB links.)
  expect_exactly(audit_flow(t, flow_file(), a), ViolationClass::kDeadline);
}

TEST(AuditMutations, FlowRateImbalanceIsFlowConservation) {
  const net::Topology t = chain_topology();
  flow::FlowAssignment a = flow_assignment(t);
  a.link_rates[1].second = 4.0;  // D1 receives 6 GB/slot, forwards 4
  const AuditReport report = audit_flow(t, flow_file(), a);
  EXPECT_GE(report.count(ViolationClass::kFlowConservation), 1)
      << report.summary();
}

TEST(AuditMutations, FlowUnderDeliveryIsDemandSatisfaction) {
  const net::Topology t = chain_topology();
  flow::FlowAssignment a = flow_assignment(t);
  a.rate = 5.0;  // 10 of 12 GB over the lifetime
  a.link_rates[0].second = 5.0;
  a.link_rates[1].second = 5.0;
  expect_exactly(audit_flow(t, flow_file(), a),
                 ViolationClass::kDemandSatisfaction);
}

}  // namespace
}  // namespace postcard::audit
