// `service`: one blocking PostcardClient drives a PostcardServer over
// loopback TCP. The server first restores a snapshot of kServiceHistory
// slots, made in a separate process (make_service_inputs) so that neither
// the history replay nor its memory shows in this process's timings or
// peak RSS. Per slot the client submits each file in its own SubmitFile
// frame, advances one slot, then reads each file's plan back with QueryPlan.
// A run cycles through kServiceDraws draws, each with its own history, so
// the slot tail is read off many sessions' slots instead of one draw's.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "bench.h"
#include "runtime/runtime.h"
#include "server/client.h"
#include "server/server.h"
#include "server/snapshot.h"
#include "server/wire.h"

namespace ctlbench {
namespace {

using postcard::net::FileRequest;
using postcard::net::Topology;
using postcard::runtime::BackendStats;
using postcard::runtime::RuntimeStats;
using postcard::server::PostcardClient;
using postcard::server::PostcardServer;

// Extra set-ups per run beyond one per episode.
constexpr int kSetupRepetitions = 40;

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// The in-process replay's outcome, which the wire path must reproduce.
struct Reference {
  std::uint64_t cost_bits = 0;
  std::uint64_t delivered_bits = 0;
  long accepted = 0;
  long rejected = 0;
  long failed = 0;
};

std::string snapshot_path(const std::string& dir, int draw) {
  return dir + "/history-" + std::to_string(draw) + ".psnp";
}

std::string reference_path(const std::string& dir) {
  return dir + "/reference.txt";
}

/// One line per draw, in draw order.
std::vector<Reference> read_references(const std::string& dir) {
  const std::string path = reference_path(dir);
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) throw std::runtime_error("cannot read " + path);
  std::vector<Reference> refs(kServiceDraws);
  int n = 5;
  for (Reference& r : refs) {
    n = std::fscanf(f, "%" SCNx64 " %" SCNx64 " %ld %ld %ld", &r.cost_bits,
                    &r.delivered_bits, &r.accepted, &r.rejected, &r.failed);
    if (n != 5) break;
  }
  std::fclose(f);
  if (n != 5) throw std::runtime_error("malformed reference " + path);
  return refs;
}

/// One traffic draw: its session's batches, the volume offered over history
/// and session, and the snapshot that holds its history.
struct Draw {
  std::vector<std::vector<FileRequest>> session;
  double offered_volume = 0.0;
  std::string snapshot;
};

struct Endpoint {
  std::unique_ptr<PostcardServer> server;
  std::unique_ptr<PostcardClient> client;
};

/// Server construction, backend registration, restore_from, start and the
/// client's connect: everything before the first request. Returns the wall
/// time; `restore_s` receives restore_from's share of it.
double set_up(const Topology& topology, const std::string& snapshot,
              Endpoint* out, double* restore_s, SpanRecorder& spans,
              int run) {
  Topology copy(topology);  // the input, made before the clock starts
  const Clock::time_point begin = Clock::now();
  SpanScope setup_span(spans, "setup", -1, run);
  {
    SpanScope span(spans, "PostcardServer", setup_span.id(), run);
    out->server = std::make_unique<PostcardServer>(
        std::move(copy), postcard::server::ServerOptions{});
    out->server->add_postcard_backend();
  }
  {
    SpanScope span(spans, "restore_from", setup_span.id(), run);
    const Clock::time_point t0 = Clock::now();
    out->server->restore_from(snapshot);
    *restore_s = seconds_since(t0);
  }
  {
    SpanScope span(spans, "start", setup_span.id(), run);
    out->server->start();
  }
  {
    SpanScope span(spans, "connect", setup_span.id(), run);
    out->client = std::make_unique<PostcardClient>("127.0.0.1",
                                                   out->server->port());
  }
  return seconds_since(begin);
}


/// What one session decided; must repeat bit for bit and match the
/// reference.
struct Outcome {
  std::uint64_t cost_bits = 0;
  std::uint64_t delivered_bits = 0;
  long accepted = 0;
  long rejected = 0;
  long failed = 0;
  bool operator==(const Outcome& o) const {
    return cost_bits == o.cost_bits && delivered_bits == o.delivered_bits &&
           accepted == o.accepted && rejected == o.rejected &&
           failed == o.failed;
  }
};

SlotDelta delta(const RuntimeStats& before, const RuntimeStats& after) {
  const BackendStats& a = before.backends[0];
  const BackendStats& b = after.backends[0];
  SlotDelta d;
  d.tick_s = after.slot_latency.total_seconds() -
             before.slot_latency.total_seconds();
  d.pricing_s = b.pricing_seconds - a.pricing_seconds;
  d.master_s = b.master_seconds - a.master_seconds;
  d.audit_s = b.audit_seconds - a.audit_seconds;
  d.pivots = b.lp_iterations - a.lp_iterations;
  d.lp_solves = b.lp_solves - a.lp_solves;
  d.resumed = b.resumed_solves - a.resumed_solves;
  d.warm_accepts = b.warm_accepts - a.warm_accepts;
  d.cold_starts = b.cold_starts - a.cold_starts;
  return d;
}

Outcome run_session(const Topology& topology, const Draw& draw, int draw_index,
                    int run, bool traced, SpanRecorder& spans, Samples& setup,
                    Timings& timings, LayerData& layers, HostProbe& probe,
                    Report& report) {
  const std::vector<std::vector<FileRequest>>& session = draw.session;
  Endpoint ep;
  double restore_s = 0.0;
  spans.set_active(traced);
  setup.add(set_up(topology, draw.snapshot, &ep, &restore_s, spans, run));
  layers.restore.add(restore_s);
  PostcardClient& client = *ep.client;

  RuntimeStats prev = client.query_stats();  // the restored counters
  const RuntimeStats start = prev;
  timings.begin_episode(draw_index);
  long session_files = 0;
  long frames = 1;
  long backpressure = 0;
  long plans_found = 0;
  for (std::size_t k = 0; k < session.size(); ++k) {
    const int slot = kServiceHistory + static_cast<int>(k);
    const std::vector<FileRequest>& batch = session[k];
    SpanScope slot_span(spans, "slot", -1, run);
    const Clock::time_point begin = Clock::now();
    for (const FileRequest& f : batch) {
      SpanScope span(spans, "submit_file", slot_span.id(), run);
      const Clock::time_point t0 = Clock::now();
      const bool admitted = client.submit_file(f).admitted;
      const double dt = seconds_since(t0);
      timings.submit().add(dt);
      layers.submit.add(dt);
      if (!admitted) ++backpressure;
    }
    double advance_s = 0.0;
    int next_slot = 0;
    {
      SpanScope span(spans, "advance", slot_span.id(), run);
      const Clock::time_point t0 = Clock::now();
      next_slot = client.advance(1);
      advance_s = seconds_since(t0);
    }
    report.check(next_slot == slot + 1, "AdvanceSlot skipped a slot");
    for (const FileRequest& f : batch) {
      SpanScope span(spans, "query_plan", slot_span.id(), run);
      const Clock::time_point t0 = Clock::now();
      const postcard::server::PlanReply reply = client.query_plan(0, f.id);
      const double dt = seconds_since(t0);
      timings.query().add(dt);
      layers.query.add(dt);
      if (reply.found) {
        ++plans_found;
        report.check(reply.plan.file_id == f.id &&
                         reply.request.size == f.size,
                     "QueryPlan returned another file's plan");
      }
    }
    frames += 2 * static_cast<long>(batch.size()) + 1;
    session_files += static_cast<long>(batch.size());
    timings.add_slot(advance_s, seconds_since(begin),
                     static_cast<int>(batch.size()));
    if (k % HostProbe::kEverySlots == 0) probe.sample();

    if (traced) {
      RuntimeStats now;
      {
        SpanScope span(spans, "query_stats", slot_span.id(), run);
        now = client.query_stats();
      }
      ++frames;
      SlotDelta d = delta(prev, now);
      prev = std::move(now);
      d.run = run;
      d.slot = slot;
      d.wall_s = advance_s;
      // Between slots the driver thread is parked on the command queue
      // until the next AdvanceSlot, so the live ledger is quiescent.
      SpanScope sweep(spans, "audit_charge_state", slot_span.id(), run);
      const Clock::time_point t0 = Clock::now();
      const postcard::audit::AuditReport audit =
          postcard::audit::audit_charge_state(
              ep.server->runtime().policy(0).charge_state(), topology);
      d.sweep_s = seconds_since(t0);
      report.check(audit.ok(), "audit_charge_state: " + audit.summary(4));
      layers.slots.push_back(d);
      layers.traced_slot.add(advance_s);
    } else {
      layers.untraced_slot.add(advance_s);
    }
  }

  // The controller's answer over the wire, then the drain that retires
  // every in-flight plan.
  const RuntimeStats wire = client.query_stats();
  client.shutdown();
  frames += 2;
  ep.server->wait();
  spans.set_active(false);
  const RuntimeStats done = ep.server->stats();
  const BackendStats& a = start.backends[0];
  const BackendStats& b = done.backends[0];

  report.check(!wire.backends[0].cost_series.empty() &&
                   wire.backends[0].cost_series.back() ==
                       b.cost_series.back(),
               "QueryStats cost disagrees with the server's ledger");
  report.check(postcard::server::ServerOptions{}.runtime.audit.mode ==
                       postcard::sim::AuditControls::Mode::kFailFast &&
                   b.audit_armed,
               "plan auditor not armed fail-fast");
  report.check(b.audit_violations == 0, "audit_violations != 0");
  report.check(b.charge_reduce_violations == 0,
               "charge_reduce_violations != 0");
  report.check(done.server.protocol_errors == 0, "protocol_errors != 0");
  report.check(done.server.backpressure_replies == backpressure,
               "backpressure replies disagree with submit verdicts");
  report.check(b.accepted_files + b.rejected_files + b.failed_files ==
                   done.admitted,
               "accepted + rejected + failed + carried != admitted");
  report.check(b.delivered_files == b.accepted_files,
               "an accepted file was not delivered");
  const long accepted = b.accepted_files - a.accepted_files;
  report.check(plans_found == accepted, "QueryPlan misses committed plans");

  layers.rejected_files += b.rejected_files - a.rejected_files +
                           done.ingress_rejected - start.ingress_rejected;
  layers.failed_files += b.failed_files - a.failed_files;
  layers.backpressure += done.server.backpressure_replies;
  layers.protocol_errors += done.server.protocol_errors;

  report.attempted += session_files + frames;
  report.failed += session_files - accepted + backpressure;

  Outcome out;
  out.cost_bits = bits(b.cost_series.back());
  out.delivered_bits = bits(b.delivered_volume);
  out.accepted = b.accepted_files;
  out.rejected = b.rejected_files;
  out.failed = b.failed_files;
  return out;
}

}  // namespace

void make_service_inputs(std::uint64_t seed, const std::string& dir) {
  using postcard::runtime::ControllerRuntime;
  std::vector<BackendStats> outcomes;
  for (int d = 0; d < kServiceDraws; ++d) {
    const std::unique_ptr<postcard::sim::WorkloadGenerator> workload =
        make_workload("service", draw_seed(seed, d));
    ControllerRuntime engine(Topology(workload->topology()),
                             postcard::runtime::RuntimeOptions{});
    engine.add_postcard_backend();
    for (int slot = 0; slot < workload->num_slots(); ++slot) {
      if (slot == kServiceHistory) {
        postcard::server::write_snapshot_file(snapshot_path(dir, d),
                                              engine.capture_snapshot());
      }
      for (const FileRequest& f : workload->batch(slot)) {
        engine.ingress().submit(f);
      }
      engine.tick();
    }
    engine.flush_in_flight();
    outcomes.push_back(engine.stats().backends[0]);
  }
  const std::string path = reference_path(dir);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const BackendStats& b : outcomes) {
    std::fprintf(f, "%" PRIx64 " %" PRIx64 " %ld %ld %ld\n",
                 bits(b.cost_series.back()), bits(b.delivered_volume),
                 b.accepted_files, b.rejected_files, b.failed_files);
  }
  std::fclose(f);
}

void run_service(const Options& options, Report& report) {
  // Inputs first, before any clock starts; the snapshots already exist.
  const RunShape shape = run_shape("service", options.seconds, options.trace);
  std::unique_ptr<postcard::sim::WorkloadGenerator> workload;
  std::vector<Draw> draws(static_cast<std::size_t>(shape.draws));
  for (int d = 0; d < shape.draws; ++d) {
    Draw& draw = draws[static_cast<std::size_t>(d)];
    workload = make_workload("service", draw_seed(options.seed, d));
    for (int slot = 0; slot < workload->num_slots(); ++slot) {
      std::vector<FileRequest> batch = workload->batch(slot);
      for (const FileRequest& f : batch) draw.offered_volume += f.size;
      if (slot >= kServiceHistory) draw.session.push_back(std::move(batch));
    }
    draw.snapshot = snapshot_path(options.inputs, d);
  }
  const Topology& topology = workload->topology();  // the same for every draw
  const std::vector<Reference> refs = read_references(options.inputs);

  SpanRecorder spans;
  LayerData layers;
  Timings timings;
  HostProbe probe;
  Samples setup;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    Endpoint ep;
    double restore_s = 0.0;
    setup.add(set_up(topology, draws[i % draws.size()].snapshot, &ep,
                     &restore_s, spans, -1));
    layers.restore.add(restore_s);
  }
  for (const Draw& draw : draws) {
    std::FILE* f = std::fopen(draw.snapshot.c_str(), "rb");
    if (f != nullptr) {
      std::fseek(f, 0, SEEK_END);
      layers.snapshot_bytes += static_cast<double>(std::ftell(f)) /
                               static_cast<double>(draws.size());
      std::fclose(f);
    }
  }

  // The wire path changed no decision: a session decides what the
  // in-process replay of the same history and session decided.
  const auto check_reference = [&](const Outcome& out, int d) {
    const Reference& ref = refs[static_cast<std::size_t>(d)];
    report.check(out.cost_bits == ref.cost_bits,
                 "service cost differs from the in-process replay");
    report.check(out.delivered_bits == ref.delivered_bits,
                 "service delivered volume differs from the replay");
    report.check(out.accepted == ref.accepted &&
                     out.rejected == ref.rejected && out.failed == ref.failed,
                 "service admission counts differ from the replay");
  };

  std::vector<Outcome> first(draws.size());
  try {
    {
      // Warm-up, untimed: one session of draw 0 with its own accumulators
      // (the host probe's samples count: they time the host).
      SpanRecorder off;
      Samples unused_setup;
      Timings unused_timings;
      LayerData unused_layers;
      Report warm;
      check_reference(run_session(topology, draws[0], 0, -1, false, off,
                                  unused_setup, unused_timings, unused_layers,
                                  probe, warm),
                      0);
      report.errors.insert(report.errors.end(), warm.errors.begin(),
                           warm.errors.end());
    }
    // Round-robin over the draws, so a drift of the machine during the run
    // reaches every draw alike; a traced run traces every other round.
    for (int e = 0; e < shape.episodes(); ++e) {
      const int d = e % shape.draws;
      const int round = e / shape.draws;
      const bool traced = options.trace && round % 2 == 1;
      const Outcome out =
          run_session(topology, draws[static_cast<std::size_t>(d)], d, e,
                      traced, spans, setup, timings, layers, probe, report);
      if (round == 0) {
        first[static_cast<std::size_t>(d)] = out;
        check_reference(out, d);
      } else {
        report.check(out == first[static_cast<std::size_t>(d)],
                     "session " + std::to_string(e) + " decided draw " +
                         std::to_string(d) + " differently");
      }
    }
  } catch (const postcard::server::WireError& err) {
    report.check(false, std::string("wire error: ") + err.what());
    ++report.failed;
    return;
  }
  report.spans = spans.size();
  layers.per_episode = static_cast<double>(shape.episodes());

  if (options.trace) {
    layers.probe_s = probe.samples().median();
    add_layer_metrics(layers, report);
    write_trace(options.trace_out, spans, layers);
    return;
  }
  // Cost per interval is the mean over draws of each draw's final cost;
  // delivered share is over every draw's history and session.
  double cost = 0.0, delivered = 0.0, offered = 0.0;
  for (std::size_t d = 0; d < draws.size(); ++d) {
    double c = 0.0, v = 0.0;
    std::memcpy(&c, &first[d].cost_bits, sizeof c);
    std::memcpy(&v, &first[d].delivered_bits, sizeof v);
    cost += c / static_cast<double>(draws.size());
    delivered += v;
    offered += draws[d].offered_volume;
  }
  report.end_to_end =
      timings.end_to_end(setup, cost, delivered / offered, probe);
}

}  // namespace ctlbench
