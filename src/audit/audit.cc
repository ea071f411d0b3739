#include "audit/audit.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

namespace postcard::audit {

namespace detail {

double scaled(double bound) { return kTolerance * (1.0 + std::abs(bound)); }

void add_violation(AuditReport& report, ViolationClass cls, int file_id,
                   int link, int slot, int node, double magnitude,
                   std::string detail) {
  Violation v;
  v.cls = cls;
  v.file_id = file_id;
  v.link = link;
  v.slot = slot;
  v.node = node;
  v.magnitude = magnitude;
  v.detail = std::move(detail);
  report.violations.push_back(std::move(v));
}

void audit_arc_capacity(int slot, const std::set<std::pair<int, int>>& arcs,
                        const net::Topology& topology,
                        const charging::ChargeState& charge,
                        AuditReport& report) {
  for (const auto& [link, n] : arcs) {
    if (n < slot) continue;  // past traffic; capacities may have changed
    if (link < 0 || link >= topology.num_links()) continue;  // kUnknownLink
    const double capacity = topology.link(link).capacity;
    const double committed = charge.committed(link, n);
    if (committed > capacity + scaled(capacity)) {
      std::ostringstream os;
      os << "committed " << committed << " GB on link " << link << " slot "
         << n << " exceeds capacity " << capacity;
      add_violation(report, ViolationClass::kArcCapacity, -1, link, n,
                    topology.link(link).from, committed - capacity, os.str());
    }
  }
}

}  // namespace detail

namespace {

using detail::add_violation;
using detail::scaled;

/// Per-file checks shared by every transfer: nonnegativity, the eq. 10
/// window, link existence, conservation via re-simulated holdings, and
/// demand satisfaction. `slot` is the batch slot the plan was committed
/// at; eq. 10 zeroes all M^k_ij(n) with n outside [slot, slot + T_k).
void audit_file_plan(int slot, const PlannedFile& pf,
                     const net::Topology& topology, AuditReport& report) {
  const net::FileRequest& file = pf.request;
  const core::FilePlan& plan = *pf.plan;
  const int first_slot = slot;
  const int last_slot = slot + file.max_transfer_slots - 1;

  for (const core::Transfer& t : plan.transfers) {
    ++report.transfers_checked;
    if (t.volume < -kTolerance) {
      add_violation(report, ViolationClass::kNonNegativity, file.id, t.link,
                    t.slot, t.from, -t.volume, "negative transfer volume");
    }
    if (t.slot < first_slot || t.slot > last_slot) {
      std::ostringstream os;
      os << "transfer at slot " << t.slot << " outside [" << first_slot << ", "
         << last_slot << "] (eq. 10)";
      add_violation(report, ViolationClass::kDeadline, file.id, t.link, t.slot,
                    t.from, static_cast<double>(t.slot - last_slot), os.str());
    }
    if (t.storage()) {
      if (t.from != t.to) {
        add_violation(report, ViolationClass::kFlowConservation, file.id, -1,
                      t.slot, t.from, t.volume,
                      "storage transfer is not a self-loop");
      }
      continue;
    }
    const int index = topology.link_index(t.from, t.to);
    if (index < 0 || index != t.link) {
      std::ostringstream os;
      os << "transfer D" << t.from << "->D" << t.to << " claims link "
         << t.link << " but topology says " << index;
      add_violation(report, ViolationClass::kUnknownLink, file.id, t.link,
                    t.slot, t.from, t.volume, os.str());
    }
  }

  // Re-simulate holdings slot by slot (time-expanded conservation, (7)-(8)).
  // holdings[node] = this file's volume at the node at the slot's start.
  std::map<int, double> holdings;
  holdings[file.source] = file.size;
  for (int n = first_slot; n <= last_slot; ++n) {
    std::map<int, double> outgoing;
    std::map<int, double> next;
    for (const core::Transfer& t : plan.transfers) {
      if (t.slot != n) continue;
      outgoing[t.from] += t.volume;
      next[t.to] += t.volume;
    }
    for (const auto& [node, moved] : outgoing) {
      const auto it = holdings.find(node);
      const double have = it != holdings.end() ? it->second : 0.0;
      if (moved > have + scaled(have)) {
        std::ostringstream os;
        os << "D" << node << " moves " << moved << " GB in slot " << n
           << " but holds " << have;
        add_violation(report, ViolationClass::kFlowConservation, file.id, -1,
                      n, node, moved - have, os.str());
      }
    }
    for (const auto& [node, have] : holdings) {
      const auto it = outgoing.find(node);
      const double moved = it != outgoing.end() ? it->second : 0.0;
      if (node == file.destination) {
        next[node] += have - moved;
        continue;
      }
      // Volume neither forwarded nor stored silently leaves the network —
      // a conservation leak, not mere under-delivery.
      if (std::abs(moved - have) > scaled(have)) {
        std::ostringstream os;
        os << "D" << node << " holds " << have << " GB at slot " << n
           << " but moves " << moved << " (must forward or store all of it)";
        add_violation(report, ViolationClass::kFlowConservation, file.id, -1,
                      n, node, std::abs(moved - have), os.str());
      }
    }
    holdings = std::move(next);
  }

  const auto it = holdings.find(file.destination);
  const double delivered = it != holdings.end() ? it->second : 0.0;
  if (std::abs(delivered - file.size) > scaled(file.size)) {
    std::ostringstream os;
    os << "delivered " << delivered << " of " << file.size
       << " GB by the deadline";
    add_violation(report, ViolationClass::kDemandSatisfaction, file.id, -1,
                  last_slot, file.destination, file.size - delivered,
                  os.str());
  }
  for (const auto& [node, volume] : holdings) {
    if (node == file.destination) continue;
    if (volume > scaled(file.size)) {
      std::ostringstream os;
      os << volume << " GB stranded at D" << node << " after the deadline";
      add_violation(report, ViolationClass::kDemandSatisfaction, file.id, -1,
                    last_slot, node, volume, os.str());
    }
  }
}

}  // namespace

const char* to_string(ViolationClass cls) {
  switch (cls) {
    case ViolationClass::kNonNegativity: return "non_negativity";
    case ViolationClass::kDeadline: return "deadline";
    case ViolationClass::kUnknownLink: return "unknown_link";
    case ViolationClass::kFlowConservation: return "flow_conservation";
    case ViolationClass::kDemandSatisfaction: return "demand_satisfaction";
    case ViolationClass::kArcCapacity: return "arc_capacity";
    case ViolationClass::kChargeConsistency: return "charge_consistency";
    case ViolationClass::kChargeLedger: return "charge_ledger";
  }
  return "unknown";
}

std::string Violation::format() const {
  std::ostringstream os;
  os << "class=" << to_string(cls);
  if (file_id >= 0) os << " file=" << file_id;
  if (link >= 0) os << " link=" << link;
  if (slot >= 0) os << " slot=" << slot;
  if (node >= 0) os << " node=" << node;
  os << " magnitude=" << magnitude << " :: " << detail;
  return os.str();
}

long AuditReport::count(ViolationClass cls) const {
  return std::count_if(violations.begin(), violations.end(),
                       [cls](const Violation& v) { return v.cls == cls; });
}

void AuditReport::merge(AuditReport&& other) {
  violations.insert(violations.end(),
                    std::make_move_iterator(other.violations.begin()),
                    std::make_move_iterator(other.violations.end()));
  files_checked += other.files_checked;
  transfers_checked += other.transfers_checked;
  links_checked += other.links_checked;
}

std::string AuditReport::summary(std::size_t max_lines) const {
  std::ostringstream os;
  os << "plan audit: " << violations.size() << " violation(s) across "
     << files_checked << " file(s), " << transfers_checked
     << " transfer(s), " << links_checked << " link(s)";
  const std::size_t shown = std::min(max_lines, violations.size());
  for (std::size_t i = 0; i < shown; ++i) {
    os << "\n  " << violations[i].format();
  }
  if (shown < violations.size()) {
    os << "\n  ... " << (violations.size() - shown) << " more";
  }
  return os.str();
}

AuditReport audit_slot_plans(int slot, const std::vector<PlannedFile>& files,
                             const net::Topology& topology,
                             const charging::ChargeState& charge) {
  AuditReport report;
  std::set<std::pair<int, int>> arcs;  // (link, slot) pairs the plans touch
  for (const PlannedFile& pf : files) {
    if (pf.plan == nullptr) continue;
    ++report.files_checked;
    audit_file_plan(slot, pf, topology, report);
    for (const core::Transfer& t : pf.plan->transfers) {
      if (!t.storage()) arcs.emplace(t.link, t.slot);
    }
  }
  detail::audit_arc_capacity(slot, arcs, topology, charge, report);
  return report;
}

AuditReport audit_charge_state(const charging::ChargeState& charge,
                               const net::Topology& topology) {
  AuditReport report;
  const charging::PercentileRecorder& recorder = charge.recorder();
  if (recorder.reduce_violations() > 0) {
    std::ostringstream os;
    os << recorder.reduce_violations()
       << " reduce() call(s) uncommitted volume that was never recorded";
    add_violation(report, ViolationClass::kChargeLedger, -1, -1, -1, -1,
                  static_cast<double>(recorder.reduce_violations()), os.str());
  }
  for (int link = 0; link < charge.num_links(); ++link) {
    ++report.links_checked;
    // X_ij must be the running per-slot maximum of the series: commit()
    // only ever raises it to that maximum and uncommit() recomputes it.
    const double charged = charge.charged(link);
    const double series_max = recorder.max_volume(link);
    if (std::abs(charged - series_max) > scaled(series_max)) {
      std::ostringstream os;
      os << "X_ij " << charged << " vs series max " << series_max;
      add_violation(report, ViolationClass::kChargeConsistency, -1, link, -1,
                    topology.num_links() > link ? topology.link(link).from : -1,
                    std::abs(charged - series_max), os.str());
    }
  }
  return report;
}

}  // namespace postcard::audit
