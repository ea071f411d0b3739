#include "runtime/runtime.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace postcard::runtime {
namespace {

template <class... Ts>
struct overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
overloaded(Ts...) -> overloaded<Ts...>;

// NOLINTNEXTLINE(postcard-determinism: wall-clock read is seconds telemetry for operator stats; it never feeds plans, ids, or serialized bytes)
double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  // NOLINTNEXTLINE(postcard-determinism: wall-clock read is seconds telemetry for operator stats; it never feeds plans, ids, or serialized bytes)
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
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
  auto controller = std::make_unique<core::PostcardController>(
      net::Topology(live_topology_), options);
  auto backend = std::make_unique<Backend>();
  backend->postcard = controller.get();
  backend->policy = std::move(controller);
  backend->stats.name = backend->policy->name();
  backend->stats.audit_armed = options_.audit.active() &&
                               backend->policy->set_audit_controls(options_.audit);
  backends_.push_back(std::move(backend));
  return num_backends() - 1;
}

int ControllerRuntime::add_flow_backend(flow::FlowBaselineOptions options) {
  auto baseline = std::make_unique<flow::FlowBaseline>(
      net::Topology(live_topology_), options);
  auto backend = std::make_unique<Backend>();
  backend->flowbase = baseline.get();
  backend->policy = std::move(baseline);
  backend->stats.name = backend->policy->name();
  backend->stats.audit_armed = options_.audit.active() &&
                               backend->policy->set_audit_controls(options_.audit);
  backends_.push_back(std::move(backend));
  return num_backends() - 1;
}

int ControllerRuntime::add_backend(
    std::unique_ptr<sim::SchedulingPolicy> policy) {
  auto backend = std::make_unique<Backend>();
  backend->policy = std::move(policy);
  backend->stats.name = backend->policy->name();
  // Generic policies may not support audits; audit_armed records the truth
  // so dashboards never assume coverage that is not there.
  backend->stats.audit_armed = options_.audit.active() &&
                               backend->policy->set_audit_controls(options_.audit);
  backends_.push_back(std::move(backend));
  return num_backends() - 1;
}

void ControllerRuntime::apply_capacity(int link, double capacity) {
  live_topology_.set_capacity(link, capacity);
  ingress_.set_link_capacity(link, capacity);
  for (auto& b : backends_) b->policy->set_link_capacity(link, capacity);
}

void ControllerRuntime::on_link_down(int slot, int link) {
  link_down_[static_cast<std::size_t>(link)] = true;
  apply_capacity(link, 0.0);
  if (!options_.replan_on_link_down) return;
  for (auto& b : backends_) {
    if (b->postcard != nullptr) invalidate_plans(*b, slot, link);
    if (b->flowbase != nullptr) invalidate_flows(*b, slot, link);
  }
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
    InFlightPlan entry = std::move(b.plans.at(id));
    b.plans.erase(id);
    b.postcard->uncommit_future(entry.plan, slot);
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
      if (volume <= options_.volume_epsilon) continue;
      requeue_remainder(b, entry.request, node, volume, entry.deadline_slot,
                        slot);
    }
  }
}

void ControllerRuntime::invalidate_flows(Backend& b, int slot, int link) {
  base::MutexLock ledger(ledger_mu_);
  std::vector<int> affected;
  for (const auto& [id, entry] : b.flows) {
    const flow::FlowAssignment& a = entry.assignment;
    if (a.start_slot + a.duration <= slot) continue;  // already done
    for (const auto& [l, rate] : a.link_rates) {
      if (l == link && rate > options_.volume_epsilon) {
        affected.push_back(id);
        break;
      }
    }
  }
  for (int id : affected) {
    InFlightFlow entry = std::move(b.flows.at(id));
    b.flows.erase(id);
    b.flowbase->uncommit_future(entry.assignment, slot);
    const flow::FlowAssignment& a = entry.assignment;
    const int completed = std::clamp(slot - a.start_slot, 0, a.duration);
    const double delivered =
        std::min(entry.request.size, a.rate * completed);
    if (delivered > 0.0) {
      base::MutexLock lock(stats_mu_);
      b.stats.delivered_volume += delivered;
    }
    const double remaining = entry.request.size - delivered;
    if (remaining > options_.volume_epsilon) {
      requeue_remainder(b, entry.request, entry.request.source, remaining,
                        a.start_slot + a.duration, slot);
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
  const int slot = next_slot_;
  // NOLINTNEXTLINE(postcard-determinism: wall-clock read is seconds telemetry for operator stats; it never feeds plans, ids, or serialized bytes)
  const auto start = std::chrono::steady_clock::now();
  retire_completed(slot);
  queue_.push(slot, SlotTick{slot});

  std::vector<net::FileRequest> arrivals;
  std::vector<net::FileRequest> late;  // arrived after this slot's solve
  bool solved = false;
  long link_events = 0;
  long solver_stalls = 0;
  long solver_faults = 0;
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
            [&](const FileArrival& e) {
              // A producer can race an arrival into the queue after this
              // slot's SlotTick has already been popped and solved; such
              // stragglers join the next slot's batch instead of vanishing.
              (solved ? late : arrivals).push_back(e.file);
            },
            [&](const SolverStall& e) {
              ++solver_stalls;
              for (std::size_t i = 0; i < backends_.size(); ++i) {
                if (e.backend < 0 || e.backend == static_cast<int>(i)) {
                  backends_[i]->injected_stall = std::max(0L, e.pivot_budget);
                }
              }
            },
            [&](const SolverFault& e) {
              ++solver_faults;
              for (std::size_t i = 0; i < backends_.size(); ++i) {
                if (e.backend < 0 || e.backend == static_cast<int>(i)) {
                  backends_[i]->injected_fault =
                      std::max(backends_[i]->injected_fault, e.disable_rungs);
                }
              }
            },
            [&](const SlotTick&) {
              if (!solved) {
                solve_slot(slot, arrivals);
                solved = true;
              }
            },
        },
        event.payload);
  }
  for (const net::FileRequest& f : late) queue_.push(slot + 1, FileArrival{f});

  next_slot_ = slot + 1;
  ingress_.set_now(next_slot_);
  base::MutexLock lock(stats_mu_);
  ++slots_processed_;
  link_events_ += link_events;
  solver_stalls_ += solver_stalls;
  solver_faults_ += solver_faults;
  slot_latency_.add(elapsed_seconds(start));
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
    // Arm the slot watchdog. Called every slot (even when inactive) so
    // one-shot chaos overrides from the previous slot are cleared.
    sim::SolveControls controls;
    if (options_.slot_pivot_budget > 0) {
      controls.max_pivots = options_.slot_pivot_budget;
    }
    if (options_.slot_deadline_seconds > 0.0) {
      controls.deadline_seconds = options_.slot_deadline_seconds;
    }
    if (b.injected_stall >= 0) controls.max_pivots = b.injected_stall;
    if (b.injected_fault > 0) controls.disable_rungs = b.injected_fault;
    b.injected_stall = -1;
    b.injected_fault = 0;
    b.policy->set_solve_controls(controls);
    const double cost_before = b.policy->cost_per_interval();

    // NOLINTNEXTLINE(postcard-determinism: wall-clock read is seconds telemetry for operator stats; it never feeds plans, ids, or serialized bytes)
    const auto t0 = std::chrono::steady_clock::now();
    const sim::ScheduleOutcome outcome = b.policy->schedule(slot, batch);
    const double seconds = elapsed_seconds(t0);

    record_outcome(b, slot, batch, outcome);
    if (b.postcard != nullptr) {
      track_plans(b, slot, b.postcard->last_plans(), batch);
    }
    if (b.flowbase != nullptr) {
      base::MutexLock ledger(ledger_mu_);
      for (const flow::FlowAssignment& a : b.flowbase->last_assignments()) {
        auto it = std::find_if(batch.begin(), batch.end(),
                               [&](const net::FileRequest& f) {
                                 return f.id == a.file_id;
                               });
        if (it != batch.end()) b.flows[a.file_id] = {*it, a};
      }
    }
    // Did this outcome reach any rung below the full LP optimum?
    const int lower_rungs =
        outcome.rung_truncated + outcome.rung_dcroute + outcome.rung_greedy;
    const bool degraded = lower_rungs > 0 || !outcome.deferred_ids.empty();
    base::MutexLock lock(stats_mu_);
    add_solve_latency(outcome, seconds);
    const double cost_after = b.policy->cost_per_interval();
    if (degraded) {
      ++b.stats.degraded_slots;
      b.stats.degraded_cost_delta += cost_after - cost_before;
    }
    b.stats.cost_series.push_back(cost_after);
    b.stats.charge_reduce_violations =
        b.policy->charge_state().recorder().reduce_violations();
  }
}

void ControllerRuntime::add_solve_latency(const sim::ScheduleOutcome& o,
                                          double seconds) {
  solve_latency_.add(seconds);
  if (o.warm_accepts + o.cold_starts == 0) return;  // no LP this solve
  const bool warm = o.warm_accepts > 0 && o.cold_starts == 0;
  (warm ? solve_latency_warm_ : solve_latency_cold_).add(seconds);
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
  b.stats.lp_iterations += outcome.lp_iterations;
  b.stats.lp_solves += outcome.lp_solves;
  b.stats.warm_accepts += outcome.warm_accepts;
  b.stats.cold_starts += outcome.cold_starts;
  b.stats.pricing_seconds += outcome.pricing_seconds;
  b.stats.master_seconds += outcome.master_seconds;
  b.stats.resumed_solves += outcome.resumed_solves;
  b.stats.dual_warm_attempts += outcome.dual_warm_attempts;
  b.stats.dual_seed_columns += outcome.dual_seed_columns;
  b.stats.rung_full += outcome.rung_full;
  b.stats.rung_truncated += outcome.rung_truncated;
  b.stats.rung_greedy += outcome.rung_greedy;
  b.stats.rung_dcroute += outcome.rung_dcroute;
  b.stats.solver_failures += outcome.solver_failures;
  if (!outcome.solver_status.empty()) {
    b.stats.last_solver_status = outcome.solver_status;
  }
  b.stats.gave_up_files += outcome.gave_up_files;
  b.stats.gave_up_volume += outcome.gave_up_volume;
  b.stats.audit_checks += outcome.audit_checks;
  b.stats.audit_violations += outcome.audit_violations;
  b.stats.audit_seconds += outcome.audit_seconds;
  for (const std::string& line : outcome.audit_reports) {
    if (static_cast<int>(b.stats.audit_reports.size()) >=
        options_.audit.max_reports) {
      break;
    }
    b.stats.audit_reports.push_back(line);
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
    InFlightPlan entry;
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
    for (auto it = b.flows.begin(); it != b.flows.end();) {
      const flow::FlowAssignment& a = it->second.assignment;
      if (a.start_slot + a.duration <= before_slot) {
        base::MutexLock lock(stats_mu_);
        if (!is_synthetic(it->first)) ++b.stats.delivered_files;
        b.stats.delivered_volume += it->second.request.size;
        it = b.flows.erase(it);
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
  while (next_slot_ < num_slots) tick();
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
  snap.num_datacenters = live_topology_.num_datacenters();
  snap.links = live_topology_.links();
  snap.base_capacity = base_capacity_;
  snap.link_down.assign(link_down_.begin(), link_down_.end());
  snap.next_slot = next_slot_;
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
    snap.solver_stalls = solver_stalls_;
    snap.solver_faults = solver_faults_;
    snap.slot_latency = slot_latency_;
    snap.solve_latency = solve_latency_;
    snap.solve_latency_warm = solve_latency_warm_;
    snap.solve_latency_cold = solve_latency_cold_;
  }
  snap.backends.reserve(backends_.size());
  for (const auto& bp : backends_) {
    const Backend& b = *bp;
    BackendSnapshot bs;
    if (b.postcard != nullptr) {
      bs.kind = BackendSnapshot::Kind::kPostcard;
    } else if (b.flowbase != nullptr) {
      bs.kind = BackendSnapshot::Kind::kFlow;
    } else {
      // The generic SchedulingPolicy interface has no charge-state restore
      // hook, so a snapshot of it could never resume faithfully. Refusing
      // here is the loud failure; a silent partial snapshot would corrupt
      // the restored run.
      throw std::logic_error(
          "capture_snapshot: generic backends cannot be snapshotted");
    }
    const charging::ChargeState& charge = b.policy->charge_state();
    const charging::PercentileRecorder& rec = charge.recorder();
    bs.series.reserve(static_cast<std::size_t>(rec.num_links()));
    for (int l = 0; l < rec.num_links(); ++l) {
      bs.series.push_back(rec.slot_series(l));
    }
    bs.series_slots = rec.num_slots();
    bs.reduce_violations = rec.reduce_violations();
    bs.charged = charge.charged_all();
    if (b.postcard != nullptr) {
      bs.warm_cache = b.postcard->warm_cache();
    }
    {
      base::MutexLock ledger(ledger_mu_);
      bs.plans.reserve(b.plans.size());
      for (const auto& [id, entry] : b.plans) {
        bs.plans.push_back({entry.request, entry.deadline_slot,
                            entry.last_transfer_slot, entry.plan});
      }
      bs.flows.reserve(b.flows.size());
      for (const auto& [id, entry] : b.flows) {
        bs.flows.push_back({entry.request, entry.assignment});
      }
    }
    // The ledgers are std::map, so both vectors are already ascending by
    // request id and identical state serializes to identical bytes (the
    // ledger walks in invalidate_* and retire_completed lean on the same
    // ordering; tests/runtime/test_replan_order.cc pins it).
    bs.replan_batch = b.replan_batch;
    bs.carry_batch = b.carry_batch;
    bs.injected_stall = b.injected_stall;
    bs.injected_fault = b.injected_fault;
    {
      base::MutexLock lock(stats_mu_);
      bs.stats = b.stats;
    }
    bs.name = bs.stats.name;
    snap.backends.push_back(std::move(bs));
  }
  return snap;
}

void ControllerRuntime::restore_snapshot(const RuntimeSnapshot& snap) {
  if (next_slot_ != 0) {
    throw std::logic_error("restore_snapshot: runtime has already ticked");
  }
  // --- Validate everything before mutating anything (all-or-nothing). ---
  if (snap.num_datacenters != live_topology_.num_datacenters() ||
      static_cast<int>(snap.links.size()) != live_topology_.num_links() ||
      snap.base_capacity.size() != snap.links.size() ||
      snap.link_down.size() != snap.links.size()) {
    throw std::invalid_argument("restore_snapshot: topology shape mismatch");
  }
  for (std::size_t l = 0; l < snap.links.size(); ++l) {
    const net::Link& have = live_topology_.link(static_cast<int>(l));
    const net::Link& want = snap.links[l];
    if (have.from != want.from || have.to != want.to ||
        have.unit_cost != want.unit_cost) {
      throw std::invalid_argument(
          "restore_snapshot: link structure mismatch at index " +
          std::to_string(l));
    }
  }
  if (snap.backends.size() != backends_.size()) {
    throw std::invalid_argument("restore_snapshot: backend count mismatch");
  }
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const Backend& b = *backends_[i];
    const BackendSnapshot& bs = snap.backends[i];
    const BackendSnapshot::Kind kind =
        b.postcard != nullptr  ? BackendSnapshot::Kind::kPostcard
        : b.flowbase != nullptr ? BackendSnapshot::Kind::kFlow
                                : BackendSnapshot::Kind::kOther;
    if (kind != bs.kind || kind == BackendSnapshot::Kind::kOther) {
      throw std::invalid_argument("restore_snapshot: backend " +
                                  std::to_string(i) + " kind mismatch");
    }
    if (b.policy->name() != bs.name) {
      throw std::invalid_argument("restore_snapshot: backend " +
                                  std::to_string(i) + " is '" +
                                  b.policy->name() + "', snapshot holds '" +
                                  bs.name + "'");
    }
    if (static_cast<int>(bs.series.size()) != live_topology_.num_links() ||
        bs.charged.size() != bs.series.size()) {
      throw std::invalid_argument("restore_snapshot: charge ledger of '" +
                                  bs.name + "' has wrong link count");
    }
  }
  // --- Apply. ---
  next_slot_ = snap.next_slot;
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
  ingress_.set_now(next_slot_);
  // pending() captured drain order; re-pushing in that order reassigns
  // fresh sequence numbers with the same relative ordering.
  for (const Event& e : snap.pending_events) queue_.push(e.slot, e.payload);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Backend& b = *backends_[i];
    const BackendSnapshot& bs = snap.backends[i];
    charging::ChargeState charge = charging::ChargeState::restore(
        charging::PercentileRecorder::from_series(
            bs.series, bs.series_slots, bs.reduce_violations),
        bs.charged);
    if (b.postcard != nullptr) {
      b.postcard->restore_charge_state(std::move(charge));
      b.postcard->set_warm_cache(bs.warm_cache);
    } else {
      b.flowbase->restore_charge_state(std::move(charge));
    }
    {
      base::MutexLock ledger(ledger_mu_);
      b.plans.clear();
      for (const PlanLedgerEntry& entry : bs.plans) {
        b.plans[entry.plan.file_id] = InFlightPlan{
            entry.request, entry.deadline_slot, entry.last_transfer_slot,
            entry.plan};
      }
      b.flows.clear();
      for (const FlowLedgerEntry& entry : bs.flows) {
        b.flows[entry.assignment.file_id] =
            InFlightFlow{entry.request, entry.assignment};
      }
    }
    b.replan_batch = bs.replan_batch;
    b.carry_batch = bs.carry_batch;
    b.injected_stall = bs.injected_stall;
    b.injected_fault = bs.injected_fault;
    base::MutexLock lock(stats_mu_);
    b.stats = bs.stats;
  }
  base::MutexLock lock(stats_mu_);
  slots_processed_ = snap.slots_processed;
  link_events_ = snap.link_events;
  solver_stalls_ = snap.solver_stalls;
  solver_faults_ = snap.solver_faults;
  slot_latency_ = snap.slot_latency;
  solve_latency_ = snap.solve_latency;
  solve_latency_warm_ = snap.solve_latency_warm;
  solve_latency_cold_ = snap.solve_latency_cold;
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
  s.solver_stalls = solver_stalls_;
  s.solver_faults = solver_faults_;
  s.slot_latency = slot_latency_;
  s.solve_latency = solve_latency_;
  s.solve_latency_warm = solve_latency_warm_;
  s.solve_latency_cold = solve_latency_cold_;
  s.backends.reserve(backends_.size());
  for (const auto& b : backends_) s.backends.push_back(b->stats);
  return s;
}

}  // namespace postcard::runtime
