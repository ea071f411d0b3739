#include "runtime/ingress.h"

#include <algorithm>
#include <stdexcept>

namespace postcard::runtime {

RequestIngress::RequestIngress(const net::Topology& topology, EventQueue& queue)
    : queue_(queue), topology_(topology) {
  // No producer can reach *this yet, but the guarded members are touched
  // outside the member-init list, so satisfy the capability analysis too.
  base::MutexLock lock(mu_);
  const int n = topology_.num_datacenters();
  egress_.assign(static_cast<std::size_t>(n), 0.0);
  ingress_.assign(static_cast<std::size_t>(n), 0.0);
  for (const net::Link& l : topology_.links()) {
    egress_[static_cast<std::size_t>(l.from)] += l.capacity;
    ingress_[static_cast<std::size_t>(l.to)] += l.capacity;
  }
}

AdmissionResult RequestIngress::submit(const net::FileRequest& file) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  AdmissionResult result;

  std::string reason;
  {
    base::MutexLock lock(mu_);
    if (dedup_ && admitted_ids_.count(file.id) > 0) {
      result.admitted = true;
      result.duplicate = true;
      return result;
    }
    try {
      net::validate(file, topology_);
      const double deadline = static_cast<double>(file.max_transfer_slots);
      const double out = egress_[static_cast<std::size_t>(file.source)];
      const double in = ingress_[static_cast<std::size_t>(file.destination)];
      if (out <= 0.0) {
        reason = "source has no live egress link";
      } else if (in <= 0.0) {
        reason = "destination has no live ingress link";
      } else if (file.size > deadline * out || file.size > deadline * in) {
        reason = "size exceeds deadline * aggregate live capacity";
      }
    } catch (const std::invalid_argument& e) {
      reason = e.what();
    }
    if (!reason.empty()) rejected_volume_ += std::max(0.0, file.size);
  }
  if (!reason.empty()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    result.admitted = false;
    result.reason = std::move(reason);
    return result;
  }

  const Event queued = queue_.push(file.release_slot, FileArrival{file});
  admitted_.fetch_add(1, std::memory_order_relaxed);
  {
    base::MutexLock lock(mu_);
    if (dedup_) admitted_ids_.insert(file.id);
  }
  result.admitted = true;
  result.slot = queued.slot;
  return result;
}

void RequestIngress::enable_dedup() {
  base::MutexLock lock(mu_);
  dedup_ = true;
}

void RequestIngress::replicate_admit(const net::FileRequest& stamped) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  queue_.push(stamped.release_slot, FileArrival{stamped});
  admitted_.fetch_add(1, std::memory_order_relaxed);
  base::MutexLock lock(mu_);
  if (dedup_) admitted_ids_.insert(stamped.id);
}

std::vector<int> RequestIngress::admitted_ids() const {
  base::MutexLock lock(mu_);
  // NOLINTNEXTLINE(postcard-determinism: the copy is std::sort'ed two lines down, so hash order never escapes this function)
  std::vector<int> ids(admitted_ids_.begin(), admitted_ids_.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

void RequestIngress::restore_admitted_ids(const std::vector<int>& ids) {
  base::MutexLock lock(mu_);
  admitted_ids_.clear();
  admitted_ids_.insert(ids.begin(), ids.end());
}

void RequestIngress::set_link_capacity(int link, double capacity) {
  base::MutexLock lock(mu_);
  if (link < 0 || link >= topology_.num_links()) {
    throw std::out_of_range("link index outside topology");
  }
  const net::Link& l = topology_.link(link);
  const double delta = capacity - l.capacity;
  egress_[static_cast<std::size_t>(l.from)] += delta;
  ingress_[static_cast<std::size_t>(l.to)] += delta;
  topology_.set_capacity(link, capacity);
}

void RequestIngress::restore_counters(long submitted, long admitted,
                                      long rejected, double rejected_volume) {
  submitted_.store(submitted, std::memory_order_relaxed);
  admitted_.store(admitted, std::memory_order_relaxed);
  rejected_.store(rejected, std::memory_order_relaxed);
  base::MutexLock lock(mu_);
  rejected_volume_ = rejected_volume;
}

double RequestIngress::rejected_volume() const {
  base::MutexLock lock(mu_);
  return rejected_volume_;
}

}  // namespace postcard::runtime
