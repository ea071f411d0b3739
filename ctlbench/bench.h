// The controller benchmark: workload shapes, the per-run report and the
// entry points of the two drivers (in-process and loopback service).
//
// Every workload is a closed loop: each call waits for its reply and the
// slot clock advances as fast as the controller answers. A run is a fixed
// number of episodes, each a fresh controller fed one seeded traffic draw:
// `paper` runs many short independent draws (the paper's methodology),
// `service` replays a fixed set of draws round-robin, and `scale` replays
// one draw several times. The episode count
// follows from --seconds through a fixed per-workload nominal episode time,
// so two commits run exactly the same work and the same sample counts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"
#include "net/topology.h"
#include "sim/workload.h"

namespace ctlbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string inputs;     // service: snapshots and expected outcomes (dir)
  std::string trace_out;  // traced run: spans-and-deltas file
};

// --- Workload shapes ------------------------------------------------------

/// paper: Sec. VII at paper scale (Fig. 4): 20-DC complete overlay, unit
/// costs U[1,10], capacity 100 GB/slot, 1-20 files per slot of U[10,100] GB
/// with deadlines U[1,3]; 100-slot runs, as in Fig. 4. The unit costs are
/// one fixed draw (seed kTopologySeed, as in service); seeds draw traffic.
inline constexpr int kPaperSlots = 100;
/// scale: bench_scale's fat6_a200 under a deterministic 2,000-pivot budget.
inline constexpr int kScaleSlots = 30;
inline constexpr long kScalePivotBudget = 2000;
/// service: bench_runtime_throughput's 6-DC shape; the server restores a
/// snapshot of kServiceHistory slots, then one client drives the session.
/// A run spreads its sessions over kServiceDraws traffic draws, each with
/// its own history.
inline constexpr int kServiceHistory = 200;
inline constexpr int kServiceSlots = 100;
inline constexpr int kServiceDraws = 12;
inline constexpr std::uint64_t kTopologySeed = 1000;

std::unique_ptr<postcard::sim::WorkloadGenerator> make_workload(
    const std::string& workload, std::uint64_t seed);

/// A run's episodes: `draws` traffic draws, each replayed `repeats` times.
struct RunShape {
  int draws = 1;
  int repeats = 1;
  int episodes() const { return draws * repeats; }
};

/// --seconds over the workload's nominal episode time; a traced run has at
/// least two episodes, on `service` two of every draw (it alternates
/// untraced and traced ones).
RunShape run_shape(const std::string& workload, double seconds, bool trace);

/// The seed of traffic draw `draw` of a run seeded `seed` (draw 0: `seed`).
inline std::uint64_t draw_seed(std::uint64_t seed, int draw) {
  return seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(draw);
}

// --- Report ---------------------------------------------------------------

struct Metric {
  Metric(std::string n, double v, std::string u, std::size_t count,
         std::string how = "")
      : name(std::move(n)), value(v), unit(std::move(u)), samples(count),
        note(std::move(how)) {}

  std::string name;
  double value;
  std::string unit;
  std::size_t samples;
  std::string note;  // how the value was reduced, when not obvious
};

/// The end-to-end timings of a run. Slot k of every repeat of a draw is
/// the same decision, so each slot decision counts once, at the median of
/// its repeats, which keeps a scheduler hiccup in one episode out of the
/// numbers.
class Timings {
 public:
  void begin_episode(int draw) { episodes_.push_back({draw, {}}); }
  /// One slot: the decision's wall time (tick, or the AdvanceSlot round
  /// trip), the wall time of the slot's whole loop (its submits, the
  /// decision, its queries) and the files it offered.
  void add_slot(double decision_s, double loop_s, int files) {
    episodes_.back().slots.push_back({decision_s, loop_s, files});
  }
  Samples& submit() { return submit_; }
  Samples& query() { return query_; }

  /// setup_s through query_p50_us, in BENCHMARK.json's order; every
  /// timing at the defining host's speed (see HostProbe).
  std::vector<Metric> end_to_end(const Samples& setup, double cost,
                                 double delivered_share,
                                 const HostProbe& probe) const;

 private:
  struct Slot {
    double decision_s;
    double loop_s;
    int files;
  };
  struct Episode {
    int draw;
    std::vector<Slot> slots;
  };

  std::vector<Episode> episodes_;
  Samples submit_;
  Samples query_;
};

/// One traced slot: wall time and the deltas of the program's own timers
/// and counters across it.
struct SlotDelta {
  int run = 0;
  int slot = 0;
  double wall_s = 0.0;      // tick() call or AdvanceSlot round trip
  double tick_s = 0.0;      // the runtime's own slot_latency delta
  double pricing_s = 0.0;
  double master_s = 0.0;
  double audit_s = 0.0;
  double sweep_s = 0.0;     // benchmark's own audit_charge_state call
  long pivots = 0;
  long lp_solves = 0;
  long resumed = 0;
  long warm_accepts = 0;
  long cold_starts = 0;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> errors;  // failed output checks
  long attempted = 0;
  long failed = 0;
  std::size_t spans = 0;  // traced run: spans recorded

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Everything a traced run collects beyond the end-to-end samples.
struct LayerData {
  std::vector<SlotDelta> slots;
  Samples traced_slot;    // slot wall time in traced episodes
  Samples untraced_slot;  // the same in the run's untraced episodes
  // Ladder and admission counts, summed over `per_episode` episodes.
  long degraded_slots = 0;
  long greedy_files = 0;
  long carryover_files = 0;
  long rejected_files = 0;
  long failed_files = 0;
  double per_episode = 1.0;
  // Snapshot restore: restore_from on service; in process, decoding and
  // restoring a traced episode's final snapshot into a fresh controller.
  Samples restore;
  double snapshot_bytes = 0.0;
  Samples submit;  // submit and query calls, for the tail diagnostics
  Samples query;
  long backpressure = 0;
  long protocol_errors = 0;
  double probe_s = 0.0;  // the host probe's median time
};

/// Per-layer metrics of a traced run, in BENCHMARK.json's order.
void add_layer_metrics(const LayerData& data, Report& report);

/// Writes the traced run's spans and per-slot deltas, one JSON object a line.
void write_trace(const std::string& path, const SpanRecorder& spans,
                 const LayerData& data);

// --- Drivers --------------------------------------------------------------

void run_inprocess(const Options& options, Report& report);
void run_service(const Options& options, Report& report);

/// Separate-process input step of `service`: for every draw, replays the
/// history, writes its snapshot into `dir`, then continues the same runtime
/// through the session in process and records the expected outcome.
void make_service_inputs(std::uint64_t seed, const std::string& dir);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

}  // namespace ctlbench
