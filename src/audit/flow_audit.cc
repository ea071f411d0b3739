#include "audit/flow_audit.h"

#include <cmath>
#include <set>
#include <sstream>
#include <utility>

namespace postcard::audit {

using detail::add_violation;
using detail::scaled;

AuditReport audit_flow_assignments(int slot,
                                   const std::vector<PlannedFlow>& flows,
                                   const net::Topology& topology,
                                   const charging::ChargeState& charge) {
  AuditReport report;
  std::set<std::pair<int, int>> arcs;
  for (const PlannedFlow& pf : flows) {
    if (pf.assignment == nullptr) continue;
    ++report.files_checked;
    const net::FileRequest& file = pf.request;
    const flow::FlowAssignment& a = *pf.assignment;

    // Structural deadline (eq. 10 analogue): the flow starts at the batch
    // slot and lives at most T_k slots; afterwards its rate is zero by
    // construction, so any longer lifetime is out-of-window traffic.
    if (a.start_slot != slot || a.duration > file.max_transfer_slots ||
        a.duration < 1) {
      std::ostringstream os;
      os << "assignment window [" << a.start_slot << ", "
         << a.start_slot + a.duration << ") vs batch slot " << slot
         << " and deadline " << file.max_transfer_slots;
      add_violation(report, ViolationClass::kDeadline, file.id, -1,
                    a.start_slot, file.source,
                    static_cast<double>(a.duration - file.max_transfer_slots),
                    os.str());
    }

    // Conservation of the constant rate pattern: net egress at the source
    // and net ingress at the destination equal r_k; other nodes balance.
    std::vector<double> net_out(
        static_cast<std::size_t>(topology.num_datacenters()), 0.0);
    for (const auto& [link, rate] : a.link_rates) {
      ++report.transfers_checked;
      if (link < 0 || link >= topology.num_links()) {
        add_violation(report, ViolationClass::kUnknownLink, file.id, link,
                      a.start_slot, -1, rate,
                      "assignment rate on a link outside the topology");
        continue;
      }
      if (rate < -kTolerance) {
        add_violation(report, ViolationClass::kNonNegativity, file.id, link,
                      a.start_slot, topology.link(link).from, -rate,
                      "negative assignment rate");
      }
      net_out[static_cast<std::size_t>(topology.link(link).from)] += rate;
      net_out[static_cast<std::size_t>(topology.link(link).to)] -= rate;
      for (int n = a.start_slot; n < a.start_slot + a.duration; ++n) {
        arcs.emplace(link, n);
      }
    }
    for (int node = 0; node < topology.num_datacenters(); ++node) {
      double expected = 0.0;
      if (node == file.source) expected = a.rate;
      if (node == file.destination) expected = -a.rate;
      const double imbalance =
          net_out[static_cast<std::size_t>(node)] - expected;
      if (std::abs(imbalance) > scaled(a.rate)) {
        std::ostringstream os;
        os << "node rate imbalance " << imbalance << " (net out "
           << net_out[static_cast<std::size_t>(node)] << ", expected "
           << expected << ")";
        add_violation(report, ViolationClass::kFlowConservation, file.id, -1,
                      a.start_slot, node, std::abs(imbalance), os.str());
      }
    }

    // Demand satisfaction: rate * duration carries the whole file.
    const double carried = a.rate * a.duration;
    if (carried < file.size - scaled(file.size)) {
      std::ostringstream os;
      os << "assignment carries " << carried << " of " << file.size << " GB";
      add_violation(report, ViolationClass::kDemandSatisfaction, file.id, -1,
                    a.start_slot, file.destination, file.size - carried,
                    os.str());
    }
  }
  detail::audit_arc_capacity(slot, arcs, topology, charge, report);
  return report;
}

}  // namespace postcard::audit
