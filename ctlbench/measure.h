// Timing, statistics and the in-memory span recorder of the controller
// benchmark. Nothing here touches the controller; the workload drivers in
// inprocess.cc and service.cc use it around their calls into the library.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ctlbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// Raw samples of one timing; quantiles are exact (no histogram buckets).
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  std::size_t count() const { return values_.size(); }

  /// The middle sample (mean of the two middle ones); 0 when empty.
  double median() const {
    if (values_.empty()) return 0.0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
  }

  /// The sample at percentile 100 * q by nearest rank; 0 when empty.
  double quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    return v[static_cast<std::size_t>(std::max(1.0, rank)) - 1];
  }

  /// The highest percentile that leaves at least ten samples above it (the
  /// maximum when there are ten samples or fewer).
  double tail() const {
    const double n = static_cast<double>(values_.size());
    return quantile(n > 10.0 ? (n - 10.0) / n : 1.0);
  }

 private:
  std::vector<double> values_;
};

/// A fixed piece of work owned by the benchmark, not the program: a strided
/// walk over a 2 MiB table, timed every few slots through a run. The CPUs
/// of a shared VM change speed by up to half over minutes, moving every
/// timing of a run together, and the probe moves with them: over ten runs
/// on the defining host, dividing by it cut the run-to-run spread of
/// `paper`'s slot p50 from 0.111 to 0.063 of the median. So the end-to-end
/// timings are reported at the speed of the host that defined the
/// benchmark: wall time divided by slowdown().
class HostProbe {
 public:
  /// The probe's median time on the defining host (4-vCPU x86-64 VM).
  static constexpr double kReferenceSeconds = 330e-6;
  /// Slots between samples.
  static constexpr int kEverySlots = 10;

  HostProbe() : table_(kWords) {
    for (std::size_t i = 0; i < kWords; ++i) table_[i] = i * 0x9e3779b9u;
  }

  void sample() {
    const Clock::time_point begin = Clock::now();
    std::uint64_t acc = 0;
    std::size_t j = 0;
    for (int i = 0; i < kSteps; ++i) {
      j = (j + kStride) & (kWords - 1);
      acc = acc * 31 + table_[j];
    }
    sink_ = acc;
    samples_.add(seconds_since(begin));
  }

  const Samples& samples() const { return samples_; }

  /// Median probe time over the reference: above 1 while the host runs
  /// slower than the defining host did; 1 before any sample.
  double slowdown() const {
    return samples_.count() == 0 ? 1.0
                                 : samples_.median() / kReferenceSeconds;
  }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 18;  // 2 MiB
  static constexpr std::size_t kStride = 7919;  // odd: visits every word
  static constexpr int kSteps = 1 << 15;

  std::vector<std::uint64_t> table_;
  volatile std::uint64_t sink_ = 0;  // keeps the walk from being elided
  Samples samples_;
};

/// Spans recorded around the benchmark's own calls into the library: name,
/// start and end (microseconds since the recorder was made), parent span and
/// run id (the episode). Kept in memory and written once at exit.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    int run = 0;
  };

  /// Recording is off until set_active(true): a traced run alternates
  /// untraced and traced episodes on one recorder.
  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }
  std::size_t size() const { return spans_.size(); }

  /// Opens a span; returns its id (-1 when recording is off).
  int open(const char* name, int parent, int run) {
    if (!active_) return -1;
    Span s;
    s.name = name;
    s.start_us = now_us();
    s.parent = parent;
    s.run = run;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = now_us();
  }

  /// Appends one JSON object per span to `out`.
  void write(std::FILE* out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"type\":\"span\",\"id\":%zu,\"name\":\"%s\","
                   "\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,"
                   "\"run\":%d}\n",
                   i, s.name.c_str(), s.start_us, s.end_us, s.parent, s.run);
    }
  }

 private:
  double now_us() const { return 1e6 * seconds_since(origin_); }

  bool active_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Closes its span when it leaves scope.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, const char* name, int parent, int run)
      : rec_(rec), id_(rec.open(name, parent, run)) {}
  ~SpanScope() { rec_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace ctlbench
