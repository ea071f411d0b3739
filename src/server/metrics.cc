#include "server/metrics.h"

#include <sstream>

namespace postcard::server {

namespace {

void line(std::ostream& os, const char* name, double value) {
  os << name << ' ' << value << '\n';
}

void line(std::ostream& os, const char* name, long value) {
  os << name << ' ' << value << '\n';
}

std::string label(const std::string& backend) {
  // Escape the two characters that would break the label syntax.
  std::string out;
  out.reserve(backend.size());
  for (char c : backend) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return "{backend=\"" + out + "\"}";
}

void backend_line(std::ostream& os, const char* name,
                  const std::string& backend, double value) {
  os << name << label(backend) << ' ' << value << '\n';
}

void backend_line(std::ostream& os, const char* name,
                  const std::string& backend, long value) {
  os << name << label(backend) << ' ' << value << '\n';
}

void histogram_lines(std::ostream& os, const char* prefix,
                     const runtime::LatencyHistogram& h) {
  os << prefix << "_count " << h.count() << '\n';
  os << prefix << "_mean_seconds " << h.mean_seconds() << '\n';
  os << prefix << "_p99_seconds " << h.quantile(0.99) << '\n';
  os << prefix << "_max_seconds " << h.max_seconds() << '\n';
}

}  // namespace

std::string format_metrics(const runtime::RuntimeStats& s) {
  std::ostringstream os;
  os.precision(17);  // doubles round-trip through the text form too

  line(os, "postcard_slots_processed", static_cast<long>(s.slots_processed));
  line(os, "postcard_queue_depth", static_cast<long>(s.queue_depth));
  line(os, "postcard_ingress_submitted", s.submitted);
  line(os, "postcard_ingress_admitted", s.admitted);
  line(os, "postcard_ingress_rejected", s.ingress_rejected);
  line(os, "postcard_ingress_rejected_volume_gb", s.ingress_rejected_volume);
  line(os, "postcard_link_events", s.link_events);

  histogram_lines(os, "postcard_slot_latency", s.slot_latency);
  histogram_lines(os, "postcard_solve_latency", s.solve_latency);

  line(os, "postcard_server_sessions_opened", s.server.sessions_opened);
  line(os, "postcard_server_sessions_closed", s.server.sessions_closed);
  line(os, "postcard_server_frames_received", s.server.frames_received);
  line(os, "postcard_server_frames_sent", s.server.frames_sent);
  line(os, "postcard_server_submits", s.server.submits);
  line(os, "postcard_server_submit_admitted", s.server.submit_admitted);
  line(os, "postcard_server_backpressure_replies",
       s.server.backpressure_replies);
  line(os, "postcard_server_queries", s.server.queries);
  line(os, "postcard_server_protocol_errors", s.server.protocol_errors);
  line(os, "postcard_server_snapshots_written", s.server.snapshots_written);
  line(os, "postcard_server_slots_advanced", s.server.slots_advanced);
  line(os, "postcard_server_sessions_reaped", s.server.sessions_reaped);

  for (const runtime::BackendStats& b : s.backends) {
    backend_line(os, "postcard_backend_accepted_files", b.name,
                 b.accepted_files);
    backend_line(os, "postcard_backend_accepted_volume_gb", b.name,
                 b.accepted_volume);
    backend_line(os, "postcard_backend_rejected_files", b.name,
                 b.rejected_files);
    backend_line(os, "postcard_backend_rejected_volume_gb", b.name,
                 b.rejected_volume);
    backend_line(os, "postcard_backend_delivered_files", b.name,
                 b.delivered_files);
    backend_line(os, "postcard_backend_delivered_volume_gb", b.name,
                 b.delivered_volume);
    backend_line(os, "postcard_backend_replans", b.name, b.replans);
    backend_line(os, "postcard_backend_failed_files", b.name, b.failed_files);
    backend_line(os, "postcard_backend_failed_volume_gb", b.name,
                 b.failed_volume);
    backend_line(os, "postcard_backend_lp_solves", b.name,
                 static_cast<long>(b.lp_solves));
    backend_line(os, "postcard_backend_lp_iterations", b.name,
                 b.lp_iterations);
    backend_line(os, "postcard_backend_warm_accepts", b.name, b.warm_accepts);
    backend_line(os, "postcard_backend_cold_starts", b.name, b.cold_starts);
    const long starts = b.warm_accepts + b.cold_starts;
    backend_line(os, "postcard_backend_warm_accept_rate", b.name,
                 starts > 0 ? static_cast<double>(b.warm_accepts) /
                                  static_cast<double>(starts)
                            : 0.0);
    backend_line(os, "postcard_backend_pricing_seconds", b.name,
                 b.pricing_seconds);
    backend_line(os, "postcard_backend_master_seconds", b.name,
                 b.master_seconds);
    backend_line(os, "postcard_backend_resumed_solves", b.name,
                 b.resumed_solves);
    backend_line(os, "postcard_backend_charge_reduce_violations", b.name,
                 b.charge_reduce_violations);
    backend_line(os, "postcard_backend_rung_full_slots", b.name, b.rung_full);
    backend_line(os, "postcard_backend_rung_truncated_slots", b.name,
                 b.rung_truncated);
    backend_line(os, "postcard_backend_rung_greedy_slots", b.name,
                 b.rung_greedy);
    backend_line(os, "postcard_backend_carryover_files", b.name,
                 b.carryover_files);
    backend_line(os, "postcard_backend_degraded_slots", b.name,
                 b.degraded_slots);
    backend_line(os, "postcard_backend_degraded_cost_delta", b.name,
                 b.degraded_cost_delta);
    backend_line(os, "postcard_backend_solver_failures", b.name,
                 b.solver_failures);
    backend_line(os, "postcard_backend_audit_armed", b.name,
                 static_cast<long>(b.audit_armed ? 1 : 0));
    backend_line(os, "postcard_backend_audit_checks", b.name, b.audit_checks);
    backend_line(os, "postcard_backend_audit_violations", b.name,
                 b.audit_violations);
    backend_line(os, "postcard_backend_audit_seconds", b.name,
                 b.audit_seconds);
    if (!b.cost_series.empty()) {
      backend_line(os, "postcard_backend_cost_per_interval", b.name,
                   b.cost_series.back());
    }
  }
  return os.str();
}

}  // namespace postcard::server
