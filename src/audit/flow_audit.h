// Flow-baseline leg of the plan auditor (see audit/audit.h).
//
// Kept in its own header so the Postcard side of the auditor does not pull
// flow/baseline.h into core translation units: each policy library
// includes only the audit entry points for its own plan type.
#pragma once

#include <vector>

#include "audit/audit.h"
#include "charging/charge_state.h"
#include "flow/baseline.h"
#include "net/file_request.h"
#include "net/topology.h"

namespace postcard::audit {

/// One accepted file together with its committed constant-rate assignment.
/// The assignment pointer must outlive the audit call; no ownership taken.
struct PlannedFlow {
  net::FileRequest request;
  const flow::FlowAssignment* assignment = nullptr;
};

/// Flow-baseline analogue of audit_slot_plans: conservation is checked on
/// the static per-file rate pattern, capacity on the committed ledger over
/// each assignment's lifetime, the deadline structurally (the flow must
/// start at `slot` and live at most T_k slots).
AuditReport audit_flow_assignments(int slot,
                                   const std::vector<PlannedFlow>& flows,
                                   const net::Topology& topology,
                                   const charging::ChargeState& charge);

}  // namespace postcard::audit
