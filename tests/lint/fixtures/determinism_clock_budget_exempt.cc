// postcard-lint-fixture: src/lp/budget.h
// No file of the deterministic core may read a clock, lp::SolveBudget's
// header included: its budget is a pivot count. Two findings, one per
// steady_clock use.
#include <chrono>

struct FixtureSolveBudget {
  std::chrono::steady_clock::time_point deadline;
  bool expired() const { return std::chrono::steady_clock::now() >= deadline; }
};
