// Flat text metrics rendering of a RuntimeStats snapshot.
//
// Prometheus-style exposition: one `name value` line per numeric field of
// the stats field lists (runtime/stats.h), with per-backend counters
// labeled `postcard_backend_*{backend="..."}`, plus histogram summaries
// and two derived lines per backend. This is the payload behind
// `postcard_client --metrics-dump` and the human half of the QueryStats
// reply — the binary StatsReply carries the full structured codec; this
// renders the same snapshot for eyeballs, grep and scrape jobs.
#pragma once

#include <string>

#include "runtime/stats.h"

namespace postcard::server {

std::string format_metrics(const runtime::RuntimeStats& stats);

}  // namespace postcard::server
