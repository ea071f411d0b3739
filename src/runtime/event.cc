#include "runtime/event.h"

#include <algorithm>
#include <cmath>

namespace postcard::runtime {

int event_phase(const EventPayload& payload) {
  // LinkDown / LinkUp / CapacityChange are 0.
  return std::holds_alternative<FileArrival>(payload) ? 1 : 0;
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

Event EventQueue::push(int slot, EventPayload payload) {
  base::MutexLock lock(mu_);
  Event event{std::max(slot, open_slot_), next_seq_++, std::move(payload)};
  if (auto* arrival = std::get_if<FileArrival>(&event.payload)) {
    arrival->file.release_slot = event.slot;
  }
  heap_.push(Entry{event.slot, event_phase(event.payload), event.seq,
                   event.payload});
  // Holding mu_ keeps the tap's observation order identical to the seq
  // order, and the tapped slot is the one the event fires at.
  if (tap_) tap_(event);
  return event;
}

bool EventQueue::pop_due(int slot, Event* out) {
  base::MutexLock lock(mu_);
  if (heap_.empty() || heap_.top().slot > slot) {
    // The cut: a push that loses the race for mu_ lands in the next slot.
    open_slot_ = std::max(open_slot_, slot + 1);
    return false;
  }
  const Entry& top = heap_.top();
  out->slot = top.slot;
  out->seq = top.seq;
  out->payload = top.payload;
  heap_.pop();
  return true;
}

int EventQueue::open_slot() const {
  base::MutexLock lock(mu_);
  return open_slot_;
}

void EventQueue::reopen(int slot) {
  base::MutexLock lock(mu_);
  open_slot_ = slot;
}

std::size_t EventQueue::depth() const {
  base::MutexLock lock(mu_);
  return heap_.size();
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
