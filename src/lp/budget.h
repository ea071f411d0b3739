// Cooperative cancellation budget for the LP solver.
//
// Postcard's online controller must commit a plan every slot; a degenerate
// or numerically sick master that runs on without bound is worse than a
// suboptimal answer delivered on time (DCRoute makes the same argument for
// allocation latency). SolveBudget is the cancellation token the simplex
// checks at iteration granularity: when it runs out the solver stops and
// reports kDeadlineExceeded with the best iterate reached so far instead
// of running on.
//
// The budget is a count, never a clock. Charging is pure arithmetic, so a
// replay with the same budget exhausts at the same iteration and produces
// bit-for-bit identical results (the runtime's determinism contract, which
// snapshot restore and the replicated pair's replay rest on).
//
// What a unit buys: the simplex charges one unit before every call of its
// iteration step. That step either pivots, flips a bound, or finds no
// entering candidate and so proves the phase optimal, and the last case
// takes a unit too. Each phase pass therefore costs one unit more than its
// pivots, and a solve runs two passes per phase (perturbed costs, then the
// true costs). A two-pivot LP with no phase 1 charges 4 units, so a budget
// of 2 or 3 stops it with both pivots done but optimality unproven.
//
// One budget is shared across every solve of a logical unit of work (all
// column-generation rounds and admission retries of one slot solve), so
// the unit as a whole respects the limit, not each solve individually.
// Not thread-safe: each concurrent solve task builds its own budget.
#pragma once

namespace postcard::lp {

class SolveBudget {
 public:
  SolveBudget() = default;

  /// At most `pivots` charges succeed; a negative count means no limit.
  /// 0 exhausts on the first charge (useful to force an immediate
  /// degradation rung).
  static SolveBudget pivot_limit(long pivots) {
    SolveBudget b;
    b.max_pivots_ = pivots < 0 ? -1 : pivots;
    return b;
  }

  /// True when a limit is armed; an unlimited budget never exhausts.
  bool limited() const { return max_pivots_ >= 0; }

  /// Charges one unit (one iteration step; see the header comment).
  /// Returns false when the budget is (now) exhausted; exhaustion is
  /// sticky and the failing unit of work is not performed by the caller.
  bool charge() {
    if (exhausted()) return false;
    ++charged_;
    return true;
  }

  /// Non-charging check (used between column-generation rounds).
  bool exhausted() const { return max_pivots_ >= 0 && charged_ >= max_pivots_; }

  long charged() const { return charged_; }

 private:
  long max_pivots_ = -1;  // -1: no limit
  long charged_ = 0;
};

}  // namespace postcard::lp
