// Thread-safe request ingress with deadline admission control.
//
// N producer threads (RPC handlers, replication daemons, ...) submit file
// requests concurrently; the ingress validates each against the live
// topology, applies a cheap *necessary* schedulability test against the
// file's deadline, and forwards admitted requests into the event queue as
// FileArrival events for their release slot. The queue re-stamps a request
// whose release slot was already closed to the open slot — a request can
// never join a batch in the past.
//
// The structural test is deliberately conservative (it must never reject a
// file the solver could schedule): a file of size F with deadline T is
// rejected only when the source has no live egress at all, the destination
// no live ingress, or F exceeds T times the aggregate live egress (or
// ingress) capacity — an upper bound on what *any* store-and-forward or
// flow schedule can move. Files passing the test may still be rejected by
// the per-slot solve; that rejection is the policy's and is accounted
// separately in BackendStats.
#pragma once

#include <atomic>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "net/file_request.h"
#include "net/topology.h"
#include "runtime/event.h"

namespace postcard::runtime {

struct AdmissionResult {
  bool admitted = false;
  int slot = -1;        // slot whose batch the file joined (admitted only)
  std::string reason;   // human-readable rejection cause
  bool duplicate = false;  // dedup hit: already admitted, not re-enqueued
};

class RequestIngress {
 public:
  /// The ingress keeps its own copy of the topology as a live-capacity
  /// view; the runtime mirrors LinkDown/LinkUp/CapacityChange into it.
  RequestIngress(const net::Topology& topology, EventQueue& queue);

  /// Thread-safe: admits or rejects `file`. Admitted files are pushed into
  /// the event queue as FileArrival events.
  AdmissionResult submit(const net::FileRequest& file) EXCLUDES(mu_);

  /// Enables idempotent submission: a submit whose id was already admitted
  /// returns {admitted=true, duplicate=true, slot=-1} without re-enqueuing
  /// or re-counting, so a client retrying across a failover applies its
  /// file exactly once. Ids are reserved only on *admit* — a rejected id
  /// may be retried (e.g. after a link recovers). Call before producers
  /// exist; off by default because callers may legitimately reuse ids.
  void enable_dedup() EXCLUDES(mu_);

  /// Replication replay: applies an already-stamped admission from the
  /// primary without re-validating it (re-running the admission test
  /// against the standby's capacity view could diverge). Bumps
  /// submitted/admitted, registers the id for dedup, and pushes the
  /// FileArrival at its stamped release slot: the slot the primary's queue
  /// fired it at, which the mirror has not closed yet.
  void replicate_admit(const net::FileRequest& stamped) EXCLUDES(mu_);

  /// Admitted-id set in sorted order, for deterministic snapshot bytes.
  std::vector<int> admitted_ids() const EXCLUDES(mu_);

  /// Snapshot restore counterpart of admitted_ids(). Quiescent use only.
  void restore_admitted_ids(const std::vector<int>& ids) EXCLUDES(mu_);

  /// Mirrors a network event into the admission capacity view.
  void set_link_capacity(int link, double capacity) EXCLUDES(mu_);

  /// Snapshot restore: overwrites the admission counters so a restarted
  /// server's accounting identity (accepted+rejected+failed == admitted)
  /// spans the restart. Quiescent use only — call before producers exist.
  void restore_counters(long submitted, long admitted, long rejected,
                        double rejected_volume) EXCLUDES(mu_);

  long submitted() const { return submitted_.load(std::memory_order_relaxed); }
  long admitted() const { return admitted_.load(std::memory_order_relaxed); }
  long rejected() const { return rejected_.load(std::memory_order_relaxed); }
  double rejected_volume() const EXCLUDES(mu_);

 private:
  EventQueue& queue_;
  std::atomic<long> submitted_{0};
  std::atomic<long> admitted_{0};
  std::atomic<long> rejected_{0};

  mutable base::Mutex mu_;
  net::Topology topology_ GUARDED_BY(mu_);
  std::vector<double> egress_ GUARDED_BY(mu_);   // live egress per datacenter
  std::vector<double> ingress_ GUARDED_BY(mu_);  // live ingress per datacenter
  double rejected_volume_ GUARDED_BY(mu_) = 0.0;
  bool dedup_ GUARDED_BY(mu_) = false;
  std::unordered_set<int> admitted_ids_ GUARDED_BY(mu_);
};

}  // namespace postcard::runtime
