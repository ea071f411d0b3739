// Unit tests for the time-expanded LP construction (eqs. 6-10): variable
// layout, the structural deadline constraint, residual capacities, and the
// charge epigraph against prior state.
#include "core/formulation.h"

#include <gtest/gtest.h>

#include "lp/solver.h"

namespace postcard::core {
namespace {

net::Topology line3() {
  net::Topology t(3);
  t.set_link(0, 1, 10.0, 1.0);
  t.set_link(1, 2, 10.0, 2.0);
  return t;
}

net::FileRequest file(int id, int s, int d, double size, int deadline, int slot) {
  return {id, s, d, size, deadline, slot};
}

TEST(Formulation, DeadlineConstraintPrunesVariables) {
  charging::ChargeState charge(2);
  // Two files with deadlines 1 and 3: the horizon is 3 layers, but file 0
  // may only use layer-0 arcs (constraint 10 as structure, not rows).
  TimeExpandedFormulation f(line3(), charge, 0,
                            {file(1, 0, 1, 5.0, 1, 0), file(2, 0, 2, 5.0, 3, 0)},
                            {});
  EXPECT_EQ(f.graph().horizon(), 3);
  for (int a = 0; a < f.graph().num_arcs(); ++a) {
    const net::TimeArc& arc = f.graph().arcs()[a];
    if (arc.layer >= 1) {
      EXPECT_EQ(f.flow_var(0, a), -1) << "file 0 got a var beyond its deadline";
    }
    EXPECT_GE(f.flow_var(1, a), 0) << "file 1 must span the whole horizon";
  }
}

TEST(Formulation, ResidualCapacityReflectsCommitments) {
  charging::ChargeState charge(2);
  charge.commit(0, 0, 6.0);  // 6 of 10 GB already committed on link 0, slot 0
  TimeExpandedFormulation f(line3(), charge, 0, {file(1, 0, 2, 3.0, 2, 0)}, {});
  for (const net::TimeArc& arc : f.graph().arcs()) {
    if (arc.storage()) continue;
    if (arc.link_index == 0 && arc.layer == 0) {
      EXPECT_DOUBLE_EQ(arc.capacity, 4.0);
    } else {
      EXPECT_DOUBLE_EQ(arc.capacity, 10.0);
    }
  }
}

TEST(Formulation, ChargeVariablesStartAtPriorCharge) {
  charging::ChargeState charge(2);
  charge.commit(1, 0, 7.5);  // X of link 1 is 7.5 before this batch
  TimeExpandedFormulation f(line3(), charge, 1, {file(1, 0, 2, 2.0, 2, 1)}, {});
  const auto& m = f.model();
  EXPECT_DOUBLE_EQ(m.col_lower()[f.charge_var(0)], 0.0);
  EXPECT_DOUBLE_EQ(m.col_lower()[f.charge_var(1)], 7.5);
  // Objective prices each X with its link's unit cost.
  EXPECT_DOUBLE_EQ(m.objective()[f.charge_var(0)], 1.0);
  EXPECT_DOUBLE_EQ(m.objective()[f.charge_var(1)], 2.0);
}

TEST(Formulation, SolvedObjectiveIncludesPriorChargeAsConstant) {
  // An empty-ish batch on top of existing charges: optimum == prior cost.
  charging::ChargeState charge(2);
  charge.commit(0, 0, 4.0);  // cost 4 * 1
  charge.commit(1, 0, 3.0);  // cost 3 * 2
  // A tiny file whose whole route fits under the paid headroom at slot >= 1.
  TimeExpandedFormulation f(line3(), charge, 1, {file(1, 0, 2, 3.0, 2, 1)}, {});
  const auto sol = lp::solve(f.model());
  ASSERT_EQ(sol.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 4.0 + 6.0, 1e-7);  // no new charge needed
}

TEST(Formulation, RejectsMismatchedReleaseSlot) {
  charging::ChargeState charge(2);
  EXPECT_THROW(TimeExpandedFormulation(line3(), charge, 0,
                                       {file(1, 0, 2, 1.0, 2, 3)}, {}),
               std::invalid_argument);
}

TEST(Formulation, RejectsEmptyBatch) {
  charging::ChargeState charge(2);
  EXPECT_THROW(TimeExpandedFormulation(line3(), charge, 0, {}, {}),
               std::invalid_argument);
}

TEST(Formulation, ElasticModeDeliversWhatFits) {
  net::Topology t(2);
  t.set_link(0, 1, 5.0, 1.0);
  charging::ChargeState charge(1);
  FormulationOptions elastic;
  elastic.elastic_demand = true;
  TimeExpandedFormulation f(t, charge, 0, {file(1, 0, 1, 30.0, 2, 0)}, elastic);
  const auto sol = lp::solve(f.model());
  ASSERT_EQ(sol.status, lp::SolveStatus::kOptimal);
  // 2 slots x 5 GB move at most 10 of the 30 GB.
  EXPECT_LE(f.delivered(sol, 0), 10.0 + 1e-7);
}

}  // namespace
}  // namespace postcard::core
