#include "runtime/event.h"

#include <cmath>

namespace postcard::runtime {

int event_phase(const EventPayload& payload) {
  if (std::holds_alternative<FileArrival>(payload)) return 1;
  if (std::holds_alternative<SlotTick>(payload)) return 2;
  return 0;  // LinkDown / LinkUp / CapacityChange / SolverStall / SolverFault
}

std::string link_event_error(const EventPayload& payload, int num_links) {
  int link = 0;
  if (const auto* d = std::get_if<LinkDown>(&payload)) {
    link = d->link;
  } else if (const auto* u = std::get_if<LinkUp>(&payload)) {
    link = u->link;
  } else if (const auto* c = std::get_if<CapacityChange>(&payload)) {
    link = c->link;
    if (!std::isfinite(c->capacity) || c->capacity < 0.0) {
      return "capacity " + std::to_string(c->capacity) + " for link " +
             std::to_string(link) + " is not finite and non-negative";
    }
  } else {
    return {};
  }
  if (link < 0 || link >= num_links) {
    return "link " + std::to_string(link) + " outside a topology of " +
           std::to_string(num_links) + " links";
  }
  return {};
}

void EventQueue::set_push_tap(PushTap tap) {
  base::MutexLock lock(mu_);
  tap_ = std::move(tap);
}

std::uint64_t EventQueue::push(int slot, EventPayload payload) {
  base::MutexLock lock(mu_);
  const std::uint64_t seq = next_seq_++;
  const int phase = event_phase(payload);
  if (tap_) {
    // The tap sees the payload before the heap consumes it; holding mu_
    // keeps the tap's observation order identical to the seq order.
    heap_.push(Entry{slot, phase, seq, payload});
    tap_(Event{slot, seq, std::move(payload)});
  } else {
    heap_.push(Entry{slot, phase, seq, std::move(payload)});
  }
  return seq;
}

bool EventQueue::pop_due(int slot, Event* out) {
  base::MutexLock lock(mu_);
  if (heap_.empty() || heap_.top().slot > slot) return false;
  const Entry& top = heap_.top();
  out->slot = top.slot;
  out->seq = top.seq;
  out->payload = top.payload;
  heap_.pop();
  return true;
}

int EventQueue::next_slot() const {
  base::MutexLock lock(mu_);
  return heap_.empty() ? -1 : heap_.top().slot;
}

std::size_t EventQueue::depth() const {
  base::MutexLock lock(mu_);
  return heap_.size();
}

std::uint64_t EventQueue::pushed_total() const {
  base::MutexLock lock(mu_);
  return next_seq_;
}

std::vector<Event> EventQueue::pending(std::uint64_t* next_seq_out) const {
  base::MutexLock lock(mu_);
  if (next_seq_out != nullptr) *next_seq_out = next_seq_;
  std::vector<Event> events;
  events.reserve(heap_.size());
  // priority_queue hides its container; drain a copy to read it in order.
  auto copy = heap_;
  while (!copy.empty()) {
    const Entry& top = copy.top();
    events.push_back(Event{top.slot, top.seq, top.payload});
    copy.pop();
  }
  return events;
}

}  // namespace postcard::runtime
