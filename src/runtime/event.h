// Typed events driving the online controller runtime.
//
// The runtime is slot-clocked: every event carries the slot at which it
// takes effect, and within a slot events are totally ordered by phase
// (network changes first, then file arrivals) and by
// submission sequence number. The queue owns the one slot clock: it closes
// a slot when the driver finds nothing more due there, and a push for a
// closed slot fires at the open one. Sequence numbers and the cut are both
// decided under the queue lock, so any fixed submission order yields a
// bit-for-bit identical drain order — the foundation of the runtime's
// determinism guarantee (see DESIGN.md, "Online controller runtime").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <variant>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "net/file_request.h"

namespace postcard::runtime {

/// A file request enters the system; it joins the batch K(slot) of the
/// event's slot. The queue stamps the request's release slot to that slot.
struct FileArrival {
  net::FileRequest file;
};

/// An overlay link fails: capacity drops to zero and committed in-flight
/// plans crossing the link at this slot or later must be replanned.
struct LinkDown {
  int link = -1;
};

/// A failed link recovers to its last configured capacity.
struct LinkUp {
  int link = -1;
};

/// The provisioned capacity of a link changes (e.g. an ISP contract
/// update). Takes effect for all future solves; does not trigger replans.
struct CapacityChange {
  int link = -1;
  double capacity = 0.0;
};

using EventPayload =
    std::variant<LinkDown, LinkUp, CapacityChange, FileArrival>;

/// Intra-slot ordering class: 0 network events, 1 arrivals. Every event of
/// a slot drains before the slot's solve, so a link change always shapes
/// the solve of the slot it fires at.
int event_phase(const EventPayload& payload);

/// Why `payload` cannot enter the queue of a runtime whose topology has
/// `num_links` links: a LinkDown, LinkUp or CapacityChange naming a link
/// outside [0, num_links), or a CapacityChange to a capacity that is not
/// finite and non-negative. Empty when it can. The runtime indexes its
/// per-link state by the event's link when the event fires, so every path
/// into the queue checks this first: the runtime's link-event helpers,
/// snapshot restore and the replication standby.
std::string link_event_error(const EventPayload& payload, int num_links);

struct Event {
  int slot = 0;
  std::uint64_t seq = 0;  // global submission order, assigned by the queue
  EventPayload payload;
};

/// Thread-safe priority queue over (slot, phase, seq) and the runtime's
/// slot clock. Producers push from any thread; the runtime's driver thread
/// pops everything due at the open slot, and the pop that finds nothing
/// more due closes that slot. Events are never reordered relative to an
/// identical submission history.
class EventQueue {
 public:
  /// Observer invoked under the queue lock for every push, with the event
  /// as queued: its firing slot, sequence number and stamped payload. The
  /// replication primary taps pushes here to ship them to its standby in
  /// exactly the order determinism depends on. The tap must be cheap and
  /// must not re-enter the queue; install it before any producer exists,
  /// uninstall by passing nullptr.
  using PushTap = std::function<void(const Event&)>;
  void set_push_tap(PushTap tap) EXCLUDES(mu_);

  /// Enqueues `payload` to fire at max(`slot`, open_slot()) and returns
  /// the event as queued. A FileArrival's release slot is stamped to the
  /// firing slot, so a file can never join a batch that was already cut.
  Event push(int slot, EventPayload payload) EXCLUDES(mu_);

  /// Pops the least (slot, phase, seq) event with slot <= `slot` into
  /// `*out`. When nothing is due, closes `slot` in the same critical
  /// section and returns false: from then on a push for `slot` or earlier
  /// fires at `slot` + 1.
  bool pop_due(int slot, Event* out) EXCLUDES(mu_);

  /// The earliest slot not yet closed: the slot the next drain solves.
  int open_slot() const EXCLUDES(mu_);

  /// Snapshot restore: reopens the clock at `slot`, the captured runtime's
  /// open slot (the runtime restores only into a runtime that never ticked).
  void reopen(int slot) EXCLUDES(mu_);

  std::size_t depth() const EXCLUDES(mu_);

  /// Every event still queued, in (slot, phase, seq) drain order — the
  /// snapshot path serializes these so a restored runtime replays future
  /// arrivals and scheduled failures identically. O(n log n) copy; callers
  /// are quiescent (the driver between ticks), not the hot path.
  /// When `next_seq_out` is non-null it receives the queue's next sequence
  /// number, captured under the same lock: every push with seq below the
  /// watermark is either drained (its effect is in the runtime state) or
  /// inside the returned pending set, never both — the replication primary
  /// uses this to filter its buffered pushes after shipping a snapshot.
  std::vector<Event> pending(std::uint64_t* next_seq_out = nullptr) const
      EXCLUDES(mu_);

 private:
  struct Entry {
    int slot;
    int phase;
    std::uint64_t seq;
    EventPayload payload;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.slot != b.slot) return a.slot > b.slot;
      if (a.phase != b.phase) return a.phase > b.phase;
      return a.seq > b.seq;
    }
  };

  mutable base::Mutex mu_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_ GUARDED_BY(mu_);
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  int open_slot_ GUARDED_BY(mu_) = 0;
  PushTap tap_ GUARDED_BY(mu_);
};

}  // namespace postcard::runtime
