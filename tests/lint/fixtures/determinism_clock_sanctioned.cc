// postcard-lint-fixture: src/lp/stopwatch.h
// The sanctioned clock file may read the clock: zero findings. The same
// content under any other path of the deterministic core is reported
// (LintFixtures.OnlyTheSanctionedFileMayReadTheClock).
#include <chrono>

class FixtureStopwatch {
 public:
  FixtureStopwatch() : start_(std::chrono::steady_clock::now()) {}

 private:
  std::chrono::steady_clock::time_point start_;
};
