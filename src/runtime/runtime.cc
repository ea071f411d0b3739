#include "runtime/runtime.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "lp/stopwatch.h"

namespace postcard::runtime {
namespace {

template <class... Ts>
struct overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
overloaded(Ts...) -> overloaded<Ts...>;

// Stranded holdings below this volume are dust and not replanned.
constexpr double kVolumeEpsilon = 1e-9;

/// The first field in which two backends' options differ, or nullptr. A
/// restored backend must solve exactly as the captured one did, and every
/// field steers the solve.
const char* first_difference(const core::PostcardOptions& a,
                             const core::PostcardOptions& b) {
  if (a.allow_storage != b.allow_storage) return "allow_storage";
  if (a.cg_relative_gap != b.cg_relative_gap) return "cg_relative_gap";
  if (a.cg_stall_rounds != b.cg_stall_rounds) return "cg_stall_rounds";
  if (a.prune_pricing != b.prune_pricing) return "prune_pricing";
  return nullptr;
}

}  // namespace

ControllerRuntime::ControllerRuntime(net::Topology topology,
                                     RuntimeOptions options)
    : options_(options),
      live_topology_(std::move(topology)),
      queue_(),
      ingress_(live_topology_, queue_) {
  base_capacity_.reserve(static_cast<std::size_t>(live_topology_.num_links()));
  for (const net::Link& l : live_topology_.links()) {
    base_capacity_.push_back(l.capacity);
  }
  link_down_.assign(static_cast<std::size_t>(live_topology_.num_links()), false);
  if (options_.dedup_submissions) ingress_.enable_dedup();
}

ControllerRuntime::~ControllerRuntime() = default;

int ControllerRuntime::add_postcard_backend(core::PostcardOptions options) {
  auto backend =
      std::make_unique<Backend>(net::Topology(live_topology_), options);
  backend->controller.set_audit_controls(options_.audit);
  if (options_.slot_pivot_budget > 0) {
    backend->controller.set_pivot_budget(options_.slot_pivot_budget);
  }
  backend->stats.name = backend->controller.name();
  backend->stats.audit_armed = options_.audit.active();
  backends_.push_back(std::move(backend));
  return num_backends() - 1;
}

void ControllerRuntime::push_link_event(int slot, EventPayload payload) {
  const std::string error =
      link_event_error(payload, live_topology_.num_links());
  if (!error.empty()) throw std::invalid_argument(error);
  queue_.push(slot, std::move(payload));
}

void ControllerRuntime::apply_capacity(int link, double capacity) {
  live_topology_.set_capacity(link, capacity);
  ingress_.set_link_capacity(link, capacity);
  for (auto& b : backends_) b->controller.set_link_capacity(link, capacity);
}

void ControllerRuntime::on_link_down(int slot, int link) {
  link_down_[static_cast<std::size_t>(link)] = true;
  apply_capacity(link, 0.0);
  for (auto& b : backends_) invalidate_plans(*b, slot, link);
}

void ControllerRuntime::invalidate_plans(Backend& b, int slot, int link) {
  base::MutexLock ledger(ledger_mu_);
  std::vector<int> affected;
  for (const auto& [id, entry] : b.plans) {
    for (const core::Transfer& t : entry.plan.transfers) {
      if (!t.storage() && t.link == link && t.slot >= slot) {
        affected.push_back(id);
        break;
      }
    }
  }
  for (int id : affected) {
    PlanLedgerEntry entry = std::move(b.plans.at(id));
    b.plans.erase(id);
    b.controller.uncommit_future(entry.plan, slot);
    // Replay the executed prefix (slots < `slot`) to locate the file's
    // volume: what already reached the destination stays delivered, the
    // rest is stranded wherever the plan last put it.
    // Ordered: the walk below re-enqueues one remainder request per node,
    // each drawing a fresh synthetic id, so node order is committed state.
    std::map<int, double> holdings;
    holdings[entry.request.source] = entry.request.size;
    for (const core::Transfer& t : entry.plan.transfers) {
      if (t.storage() || t.slot >= slot) continue;
      holdings[t.from] -= t.volume;
      holdings[t.to] += t.volume;
    }
    double arrived = 0.0;
    if (auto it = holdings.find(entry.request.destination);
        it != holdings.end()) {
      arrived = std::max(0.0, it->second);
      holdings.erase(it);
    }
    if (arrived > 0.0) {
      base::MutexLock lock(stats_mu_);
      b.stats.delivered_volume += arrived;
    }
    for (const auto& [node, volume] : holdings) {
      if (volume <= kVolumeEpsilon) continue;
      requeue_remainder(b, entry.request, node, volume, entry.deadline_slot,
                        slot);
    }
  }
}

void ControllerRuntime::requeue_remainder(Backend& b,
                                          const net::FileRequest& origin,
                                          int node, double volume,
                                          int deadline_slot, int slot) {
  if (node == origin.destination) {
    base::MutexLock lock(stats_mu_);
    b.stats.delivered_volume += volume;
    return;
  }
  const int slack = deadline_slot - slot;
  if (slack < 1) {
    // No slot left before the deadline: the file fails loudly, never
    // silently — the volume lands in the failure counters.
    base::MutexLock lock(stats_mu_);
    ++b.stats.failed_files;
    b.stats.failed_volume += volume;
    return;
  }
  net::FileRequest request;
  request.id = next_synthetic_id_++;
  request.source = node;
  request.destination = origin.destination;
  request.size = volume;
  request.max_transfer_slots = slack;
  request.release_slot = slot;
  b.replan_batch.push_back(request);
  base::MutexLock lock(stats_mu_);
  ++b.stats.replans;
  b.stats.replanned_volume += volume;
}

void ControllerRuntime::tick() {
  const int slot = queue_.open_slot();
  const lp::Stopwatch slot_time;
  retire_completed(slot);

  std::vector<net::FileRequest> arrivals;
  long link_events = 0;
  Event event;
  while (queue_.pop_due(slot, &event)) {
    std::visit(
        overloaded{
            [&](const LinkDown& e) {
              ++link_events;
              on_link_down(slot, e.link);
            },
            [&](const LinkUp& e) {
              ++link_events;
              link_down_[static_cast<std::size_t>(e.link)] = false;
              apply_capacity(e.link,
                             base_capacity_[static_cast<std::size_t>(e.link)]);
            },
            [&](const CapacityChange& e) {
              ++link_events;
              base_capacity_[static_cast<std::size_t>(e.link)] = e.capacity;
              if (!link_down_[static_cast<std::size_t>(e.link)]) {
                apply_capacity(e.link, e.capacity);
              }
            },
            [&](const FileArrival& e) { arrivals.push_back(e.file); },
        },
        event.payload);
  }
  // The drain ended with the queue closing `slot`: K(slot) is fixed.
  solve_slot(slot, arrivals);

  base::MutexLock lock(stats_mu_);
  ++slots_processed_;
  link_events_ += link_events;
  slot_latency_.add(slot_time.seconds());
}

void ControllerRuntime::solve_slot(int slot,
                                   const std::vector<net::FileRequest>& arrivals) {
  for (auto& bp : backends_) {
    Backend& b = *bp;
    std::vector<net::FileRequest> batch = arrivals;
    batch.insert(batch.end(), b.replan_batch.begin(), b.replan_batch.end());
    b.replan_batch.clear();
    batch.insert(batch.end(), b.carry_batch.begin(), b.carry_batch.end());
    b.prior_carry_ids.clear();
    for (const net::FileRequest& f : b.carry_batch) {
      b.prior_carry_ids.insert(f.id);
    }
    b.carry_batch.clear();
    const double cost_before = b.controller.cost_per_interval();

    const lp::Stopwatch solve_time;
    const sim::ScheduleOutcome outcome = b.controller.schedule(slot, batch);
    const double seconds = solve_time.seconds();

    record_outcome(b, slot, batch, outcome);
    track_plans(b, slot, b.controller.last_plans(), batch);
    // Did this outcome reach any rung below the full LP optimum?
    const long lower_rungs = outcome.rung_truncated + outcome.rung_greedy;
    const bool degraded = lower_rungs > 0 || !outcome.deferred_ids.empty();
    base::MutexLock lock(stats_mu_);
    solve_latency_.add(seconds);
    const double cost_after = b.controller.cost_per_interval();
    if (degraded) {
      ++b.stats.degraded_slots;
      b.stats.degraded_cost_delta += cost_after - cost_before;
    }
    b.stats.cost_series.push_back(cost_after);
    b.stats.charge_reduce_violations =
        b.controller.charge_state().recorder().reduce_violations();
  }
}

void ControllerRuntime::record_outcome(
    Backend& b, int slot, const std::vector<net::FileRequest>& batch,
    const sim::ScheduleOutcome& outcome) {
  std::unordered_map<int, const net::FileRequest*> by_id;
  for (const net::FileRequest& f : batch) by_id[f.id] = &f;
  auto size_of = [&](int id) {
    const auto it = by_id.find(id);
    return it != by_id.end() ? it->second->size : 0.0;
  };
  // Store-in-place carryover (outside the stats lock: carry_batch is only
  // touched by the driver thread). A deferred file was neither accepted nor
  // rejected; it re-enters the next slot's batch under the same id with one
  // slot less deadline slack — or fails loudly when no slack remains.
  long carried = 0, carry_failed = 0, entered = 0;
  double carried_volume = 0.0, carry_failed_volume = 0.0;
  double entered_volume = 0.0;
  for (int id : outcome.deferred_ids) {
    const auto it = by_id.find(id);
    if (it == by_id.end()) continue;
    const net::FileRequest& f = *it->second;
    if (f.max_transfer_slots <= 1) {
      ++carry_failed;
      carry_failed_volume += f.size;
      continue;
    }
    net::FileRequest carry = f;
    carry.release_slot = slot + 1;
    carry.max_transfer_slots -= 1;
    b.carry_batch.push_back(carry);
    ++carried;
    carried_volume += f.size;
    // First hop vs. repeat hop: carried_volume above grows with the chain
    // length (one entry per slot the file sat out), the entered pair below
    // counts each file once however long its chain runs.
    if (b.prior_carry_ids.find(id) == b.prior_carry_ids.end()) {
      ++entered;
      entered_volume += f.size;
    }
  }
  base::MutexLock lock(stats_mu_);
  b.stats += outcome;
  if (!outcome.solver_status.empty()) {
    b.stats.last_solver_status = outcome.solver_status;
  }
  b.stats.carryover_files += carried;
  b.stats.carryover_volume += carried_volume;
  b.stats.carryover_entered_files += entered;
  b.stats.carryover_entered_volume += entered_volume;
  b.stats.failed_files += carry_failed;
  b.stats.failed_volume += carry_failed_volume;
  for (int id : outcome.accepted_ids) {
    if (is_synthetic(id)) continue;  // fragment volume counted at admission
    ++b.stats.accepted_files;
    b.stats.accepted_volume += size_of(id);
  }
  for (int id : outcome.rejected_ids) {
    if (is_synthetic(id)) {
      // A replan fragment the solver could not place: the original file
      // cannot finish — loud failure, not a silent drop.
      ++b.stats.failed_files;
      b.stats.failed_volume += size_of(id);
    } else {
      ++b.stats.rejected_files;
      b.stats.rejected_volume += size_of(id);
    }
  }
}

void ControllerRuntime::track_plans(Backend& b, int slot,
                                    const std::vector<core::FilePlan>& plans,
                                    const std::vector<net::FileRequest>& batch) {
  base::MutexLock ledger(ledger_mu_);
  for (const core::FilePlan& plan : plans) {
    const auto it = std::find_if(batch.begin(), batch.end(),
                                 [&](const net::FileRequest& f) {
                                   return f.id == plan.file_id;
                                 });
    if (it == batch.end()) continue;
    PlanLedgerEntry entry;
    entry.request = *it;
    entry.deadline_slot = slot + it->max_transfer_slots;
    entry.last_transfer_slot = slot;
    for (const core::Transfer& t : plan.transfers) {
      entry.last_transfer_slot = std::max(entry.last_transfer_slot, t.slot);
    }
    entry.plan = plan;
    b.plans[plan.file_id] = std::move(entry);
  }
}

void ControllerRuntime::retire_completed(int before_slot) {
  base::MutexLock ledger(ledger_mu_);
  for (auto& bp : backends_) {
    Backend& b = *bp;
    for (auto it = b.plans.begin(); it != b.plans.end();) {
      if (it->second.last_transfer_slot < before_slot) {
        base::MutexLock lock(stats_mu_);
        if (!is_synthetic(it->first)) ++b.stats.delivered_files;
        b.stats.delivered_volume += it->second.request.size;
        it = b.plans.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void ControllerRuntime::flush_in_flight() {
  retire_completed(std::numeric_limits<int>::max());
  // Carryover files deferred at the final slot never got re-solved; they
  // fail loudly rather than vanish from the accounting identity.
  for (auto& bp : backends_) {
    if (bp->carry_batch.empty()) continue;
    base::MutexLock lock(stats_mu_);
    for (const net::FileRequest& f : bp->carry_batch) {
      ++bp->stats.failed_files;
      bp->stats.failed_volume += f.size;
    }
    bp->carry_batch.clear();
  }
}

void ControllerRuntime::run(int num_slots) {
  while (current_slot() < num_slots) tick();
  flush_in_flight();
}

RuntimeStats ControllerRuntime::replay(const sim::WorkloadGenerator& workload) {
  for (int slot = 0; slot < workload.num_slots(); ++slot) {
    for (const net::FileRequest& f : workload.batch(slot)) ingress_.submit(f);
    tick();
  }
  flush_in_flight();
  return stats();
}

bool ControllerRuntime::query_plan(int backend, int file_id,
                                   core::FilePlan* plan,
                                   net::FileRequest* request) const {
  if (backend < 0 || backend >= num_backends()) return false;
  const Backend& b = *backends_[static_cast<std::size_t>(backend)];
  base::MutexLock ledger(ledger_mu_);
  const auto it = b.plans.find(file_id);
  if (it == b.plans.end()) return false;
  if (plan != nullptr) *plan = it->second.plan;
  if (request != nullptr) *request = it->second.request;
  return true;
}

RuntimeSnapshot ControllerRuntime::capture_snapshot() const {
  RuntimeSnapshot snap;
  snap.options = options_;
  snap.num_datacenters = live_topology_.num_datacenters();
  snap.links = live_topology_.links();
  snap.base_capacity = base_capacity_;
  snap.link_down.assign(link_down_.begin(), link_down_.end());
  snap.next_slot = queue_.open_slot();
  snap.next_synthetic_id = next_synthetic_id_;
  snap.submitted = ingress_.submitted();
  snap.admitted = ingress_.admitted();
  snap.ingress_rejected = ingress_.rejected();
  snap.ingress_rejected_volume = ingress_.rejected_volume();
  snap.admitted_ids = ingress_.admitted_ids();
  snap.pending_events = queue_.pending(&snap.event_seq_watermark);
  {
    base::MutexLock lock(stats_mu_);
    snap.slots_processed = slots_processed_;
    snap.link_events = link_events_;
    snap.slot_latency = slot_latency_;
    snap.solve_latency = solve_latency_;
  }
  snap.backends.reserve(backends_.size());
  for (const auto& bp : backends_) {
    const Backend& b = *bp;
    BackendSnapshot bs;
    bs.options = b.controller.options();
    const charging::ChargeState& charge = b.controller.charge_state();
    const charging::PercentileRecorder& rec = charge.recorder();
    bs.series.reserve(static_cast<std::size_t>(rec.num_links()));
    for (int l = 0; l < rec.num_links(); ++l) {
      bs.series.push_back(rec.slot_series(l));
    }
    bs.series_slots = rec.num_slots();
    bs.reduce_violations = rec.reduce_violations();
    {
      base::MutexLock ledger(ledger_mu_);
      bs.plans.reserve(b.plans.size());
      for (const auto& [id, entry] : b.plans) bs.plans.push_back(entry);
    }
    // The ledger is a std::map, so the vector is already ascending by
    // request id and identical state serializes to identical bytes (the
    // ledger walks in invalidate_plans and retire_completed lean on the
    // same ordering; tests/runtime/test_replan_order.cc pins it).
    bs.replan_batch = b.replan_batch;
    bs.carry_batch = b.carry_batch;
    {
      base::MutexLock lock(stats_mu_);
      bs.stats = b.stats;
    }
    snap.backends.push_back(std::move(bs));
  }
  return snap;
}

void ControllerRuntime::restore_snapshot(const RuntimeSnapshot& snap) {
  if (queue_.open_slot() != 0) {
    throw std::logic_error("restore_snapshot: runtime has already ticked");
  }
  // --- Validate everything before mutating anything (all-or-nothing). ---
  if (snap.num_datacenters != live_topology_.num_datacenters() ||
      static_cast<int>(snap.links.size()) != live_topology_.num_links() ||
      snap.base_capacity.size() != snap.links.size() ||
      snap.link_down.size() != snap.links.size()) {
    throw std::invalid_argument("restore_snapshot: topology shape mismatch");
  }
  const auto usable = [](double capacity) {
    return std::isfinite(capacity) && capacity >= 0.0;
  };
  for (std::size_t l = 0; l < snap.links.size(); ++l) {
    const net::Link& have = live_topology_.link(static_cast<int>(l));
    const net::Link& want = snap.links[l];
    if (have.from != want.from || have.to != want.to ||
        have.unit_cost != want.unit_cost) {
      throw std::invalid_argument(
          "restore_snapshot: link structure mismatch at index " +
          std::to_string(l));
    }
    if (!usable(want.capacity) || !usable(snap.base_capacity[l])) {
      throw std::invalid_argument(
          "restore_snapshot: capacity of link " + std::to_string(l) +
          " is not finite and non-negative");
    }
  }
  // The checksum catches damage, not a crafted image: every pending link
  // event indexes per-link state at its tick, so each one is checked here.
  for (const Event& e : snap.pending_events) {
    const std::string error =
        link_event_error(e.payload, live_topology_.num_links());
    if (!error.empty()) {
      throw std::invalid_argument("restore_snapshot: pending event at slot " +
                                  std::to_string(e.slot) + ": " + error);
    }
  }
  if (snap.backends.size() != backends_.size()) {
    throw std::invalid_argument("restore_snapshot: backend count mismatch");
  }
  // Built here, not while applying: rebuilding a ledger checks its volumes
  // and throws on a bad one.
  std::vector<charging::ChargeState> charges;
  charges.reserve(backends_.size());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const Backend& b = *backends_[i];
    const BackendSnapshot& bs = snap.backends[i];
    const char* field = first_difference(b.controller.options(), bs.options);
    if (field != nullptr) {
      throw std::invalid_argument(
          "restore_snapshot: backend " + std::to_string(i) + " ('" +
          b.controller.name() + "') differs from the snapshot's in " + field);
    }
    if (static_cast<int>(bs.series.size()) != live_topology_.num_links()) {
      throw std::invalid_argument("restore_snapshot: charge ledger of backend " +
                                  std::to_string(i) + " has wrong link count");
    }
    charges.push_back(charging::ChargeState::restore(
        charging::PercentileRecorder::from_series(bs.series, bs.series_slots,
                                                  bs.reduce_violations)));
  }
  // --- Apply. Nothing below throws on snapshot contents. ---
  queue_.reopen(snap.next_slot);
  next_synthetic_id_ = snap.next_synthetic_id;
  base_capacity_ = snap.base_capacity;
  link_down_.assign(snap.link_down.begin(), snap.link_down.end());
  for (std::size_t l = 0; l < snap.links.size(); ++l) {
    apply_capacity(static_cast<int>(l), snap.links[l].capacity);
  }
  ingress_.restore_counters(snap.submitted, snap.admitted,
                            snap.ingress_rejected,
                            snap.ingress_rejected_volume);
  ingress_.restore_admitted_ids(snap.admitted_ids);
  // pending() captured drain order; re-pushing in that order reassigns
  // fresh sequence numbers with the same relative ordering.
  for (const Event& e : snap.pending_events) queue_.push(e.slot, e.payload);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Backend& b = *backends_[i];
    const BackendSnapshot& bs = snap.backends[i];
    b.controller.restore_charge_state(std::move(charges[i]));
    {
      base::MutexLock ledger(ledger_mu_);
      b.plans.clear();
      for (const PlanLedgerEntry& entry : bs.plans) {
        b.plans[entry.plan.file_id] = entry;
      }
    }
    b.replan_batch = bs.replan_batch;
    b.carry_batch = bs.carry_batch;
    base::MutexLock lock(stats_mu_);
    b.stats = bs.stats;
  }
  base::MutexLock lock(stats_mu_);
  slots_processed_ = snap.slots_processed;
  link_events_ = snap.link_events;
  slot_latency_ = snap.slot_latency;
  solve_latency_ = snap.solve_latency;
}

RuntimeStats ControllerRuntime::stats() const {
  RuntimeStats s;
  s.queue_depth = queue_.depth();
  s.submitted = ingress_.submitted();
  s.admitted = ingress_.admitted();
  s.ingress_rejected = ingress_.rejected();
  s.ingress_rejected_volume = ingress_.rejected_volume();
  base::MutexLock lock(stats_mu_);
  s.slots_processed = slots_processed_;
  s.link_events = link_events_;
  s.slot_latency = slot_latency_;
  s.solve_latency = solve_latency_;
  s.backends.reserve(backends_.size());
  for (const auto& b : backends_) s.backends.push_back(b->stats);
  return s;
}

}  // namespace postcard::runtime
