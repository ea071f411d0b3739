// Plan auditor: machine-checked paper invariants for committed plans.
//
// The controllers commit plans through a degradation ladder, resumed
// column-generation masters and rollback/replan paths — the code shape
// where a silently infeasible plan can slip past cost-only tests. This
// library re-verifies, independently of the LP that produced them, every
// invariant of formulation (6)-(10) on what was actually committed:
//
//   * flow conservation per node and slot on the time-expanded graph (7)-(8),
//   * per-arc capacity c_ij(n) * t-bar, checked against the full committed
//     ledger, not just the new batch (9),
//   * the structural deadline constraint M^k_ij(n) = 0 for n > t + T_k (10)
//     — no transfer may move outside the file's [t, t + T_k) window,
//   * nonnegativity of every transfer volume,
//   * demand satisfaction: every accepted file's full size reaches its
//     destination by the deadline,
//   * charge-state consistency: X_ij equals its link's per-slot series
//     maximum, and the ledger saw no reduce() accounting violations.
//
// DCRoute (PAPERS.md) motivates the core check: deadline-guaranteed
// allocations must be *provably* feasible per slot, not merely cheap.
// Violations come back as structured records (class, file, link, slot,
// node, magnitude) so tests can assert on exact violation classes and the
// runtime can surface per-class counters in BackendStats.
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "charging/charge_state.h"
#include "core/plan.h"
#include "net/file_request.h"
#include "net/topology.h"

namespace postcard::audit {

enum class ViolationClass {
  kNonNegativity = 0,   // transfer or rate below zero
  kDeadline,            // traffic outside [t, t + T_k)  (eq. 10)
  kUnknownLink,         // transfer over a link the topology does not have
  kFlowConservation,    // node moves more than it holds / leaks volume
  kDemandSatisfaction,  // accepted file not fully delivered by the deadline
  kArcCapacity,         // committed ledger exceeds c_ij(n) * t-bar  (eq. 9)
  kChargeConsistency,   // X_ij differs from its series maximum
  kChargeLedger,        // reduce() saw an uncommit of never-committed volume
};
inline constexpr int kNumViolationClasses = 8;

const char* to_string(ViolationClass cls);

/// One violated invariant, with enough structure to assert on in tests.
struct Violation {
  ViolationClass cls = ViolationClass::kNonNegativity;
  int file_id = -1;  // -1 when not attributable to a single file
  int link = -1;
  int slot = -1;
  int node = -1;
  double magnitude = 0.0;  // by how much the constraint is violated
  std::string detail;      // human-readable specifics

  /// One structured line: "class=arc_capacity link=3 slot=12 ... detail".
  std::string format() const;
};

/// Base tolerance for LP-produced volumes. Capacity and demand checks
/// scale it by (1 + bound magnitude) so large instances are not flagged
/// for simplex-level rounding noise. 1e-4 matches the bound the plan
/// verification tests have always used for LP output.
inline constexpr double kTolerance = 1e-4;

struct AuditReport {
  std::vector<Violation> violations;
  int files_checked = 0;
  int transfers_checked = 0;
  int links_checked = 0;

  bool ok() const { return violations.empty(); }
  long count(ViolationClass cls) const;
  void merge(AuditReport&& other);
  /// Multi-line summary, at most `max_lines` violation lines.
  std::string summary(std::size_t max_lines = 16) const;
};

/// One accepted file together with its committed store-and-forward plan.
/// The plan pointer must outlive the audit call; no ownership is taken.
struct PlannedFile {
  net::FileRequest request;
  const core::FilePlan* plan = nullptr;
};

/// Audits the store-and-forward plans committed at `slot` against the live
/// topology and the *post-commit* charge state: per-file checks run on the
/// plan alone, the arc-capacity check runs on the full committed ledger for
/// every (link, n >= slot) the plans touch, so older commitments sharing an
/// arc are included.
AuditReport audit_slot_plans(int slot, const std::vector<PlannedFile>& files,
                             const net::Topology& topology,
                             const charging::ChargeState& charge);

/// Charge-state consistency, one max scan per link: X_ij must equal the
/// per-slot series maximum, and the recorder must have seen zero reduce()
/// accounting violations.
AuditReport audit_charge_state(const charging::ChargeState& charge,
                               const net::Topology& topology);

namespace detail {

/// Absolute kTolerance plus the same amount per unit of `bound`, so large
/// capacity/demand rows tolerate the rounding noise the LP itself does.
double scaled(double bound);

void add_violation(AuditReport& report, ViolationClass cls, int file_id,
                   int link, int slot, int node, double magnitude,
                   std::string detail);

/// Shared capacity leg (eq. 9): every (link, n >= slot) pair in `arcs`
/// must keep the committed ledger within c_ij(n) * t-bar.
void audit_arc_capacity(int slot, const std::set<std::pair<int, int>>& arcs,
                        const net::Topology& topology,
                        const charging::ChargeState& charge,
                        AuditReport& report);

}  // namespace detail

}  // namespace postcard::audit
