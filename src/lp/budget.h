// Cooperative cancellation budget for the LP solver.
//
// Postcard's online controller must commit a plan every slot; a degenerate
// or numerically sick master that blocks past the slot boundary is worse
// than a suboptimal answer delivered on time (DCRoute makes the same
// argument for allocation latency). SolveBudget is the cancellation token
// the simplex checks at pivot granularity: when it runs out the solver
// stops and reports kDeadlineExceeded with the best iterate reached so far
// instead of blocking.
//
// Two limits, combinable:
//   * pivot budget — a deterministic count of simplex pivots. Charging is
//     pure arithmetic, so a replay with the same budget exhausts at the
//     same pivot and produces bit-for-bit identical results (the runtime's
//     deterministic-mode contract).
//   * wall-clock deadline — a steady_clock horizon for production, where
//     the real constraint is the slot boundary, not a pivot count.
//
// One budget is shared across every solve of a logical unit of work (all
// column-generation rounds and admission retries of one slot solve), so
// the unit as a whole respects the limit, not each solve individually.
// Not thread-safe: each concurrent solve task builds its own budget.
#pragma once

#include <chrono>

namespace postcard::lp {

class SolveBudget {
 public:
  SolveBudget() = default;

  /// Deterministic budget: at most `pivots` charges succeed. 0 exhausts on
  /// the first charge (useful to force an immediate degradation rung).
  static SolveBudget pivot_limit(long pivots) {
    SolveBudget b;
    b.set_pivot_limit(pivots);
    return b;
  }

  /// Wall-clock budget: charges fail once `seconds` have elapsed from now.
  static SolveBudget deadline(double seconds) {
    SolveBudget b;
    b.set_deadline_seconds(seconds);
    return b;
  }

  void set_pivot_limit(long pivots) { max_pivots_ = pivots < 0 ? -1 : pivots; }
  void set_deadline_seconds(double seconds) {
    if (seconds < 0.0) return;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
    has_deadline_ = true;
  }

  /// True when any limit is armed; an unlimited budget never exhausts.
  bool limited() const { return max_pivots_ >= 0 || has_deadline_; }

  /// Charges one pivot. Returns false when the budget is (now)
  /// exhausted; exhaustion is sticky and the failing unit of work is not
  /// performed by the caller.
  bool charge() {
    if (exhausted_) return false;
    if (max_pivots_ >= 0 && charged_ >= max_pivots_) {
      exhausted_ = true;
      return false;
    }
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      exhausted_ = true;
      return false;
    }
    ++charged_;
    return true;
  }

  /// Non-charging check (used between column-generation rounds).
  bool exhausted() {
    if (!exhausted_ && has_deadline_ &&
        std::chrono::steady_clock::now() >= deadline_) {
      exhausted_ = true;
    }
    if (!exhausted_ && max_pivots_ >= 0 && charged_ >= max_pivots_) {
      exhausted_ = true;
    }
    return exhausted_;
  }

  long charged() const { return charged_; }

 private:
  long max_pivots_ = -1;  // -1: no pivot limit
  long charged_ = 0;
  bool has_deadline_ = false;
  bool exhausted_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace postcard::lp
