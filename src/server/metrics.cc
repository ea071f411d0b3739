#include "server/metrics.h"

#include <sstream>
#include <type_traits>

namespace postcard::server {

namespace {

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

void histogram_lines(std::ostream& os, const std::string& prefix,
                     const runtime::LatencyHistogram& h) {
  os << prefix << "_count " << h.count() << '\n';
  os << prefix << "_mean_seconds " << h.mean_seconds() << '\n';
  os << prefix << "_p99_seconds " << h.quantile(0.99) << '\n';
  os << prefix << "_max_seconds " << h.max_seconds() << '\n';
}

/// One line per numeric field of `s` that `fields` lists, and the summary
/// lines of each histogram; fields without a metric name write nothing.
template <typename Stats, typename Fields>
void field_lines(std::ostream& os, const char* prefix,
                 const std::string& labels, const Stats& s,
                 const Fields& fields) {
  runtime::for_each_field(fields, [&](const auto& field) {
    if (field.metric == nullptr) return;
    const auto& value = s.*field.member;
    using Value = std::decay_t<decltype(value)>;
    if constexpr (std::is_arithmetic_v<Value>) {
      os << prefix << field.metric << labels << ' ' << value << '\n';
    } else if constexpr (std::is_same_v<Value, runtime::LatencyHistogram>) {
      histogram_lines(os, prefix + std::string(field.metric), value);
    }
  });
}

}  // namespace

std::string format_metrics(const runtime::RuntimeStats& s) {
  std::ostringstream os;
  os.precision(17);  // doubles round-trip through the text form too

  field_lines(os, "postcard_", "", s, runtime::kRuntimeFields);
  field_lines(os, "postcard_server_", "", s.server, runtime::kServerFields);
  for (const runtime::BackendStats& b : s.backends) {
    const std::string labels = label(b.name);
    field_lines(os, "postcard_backend_", labels, b, runtime::kBackendFields);
    // Derived lines.
    os << "postcard_backend_warm_accept_rate" << labels << ' '
       << b.warm_accept_rate() << '\n';
    if (!b.cost_series.empty()) {
      os << "postcard_backend_cost_per_interval" << labels << ' '
         << b.cost_series.back() << '\n';
    }
  }
  return os.str();
}

}  // namespace postcard::server
