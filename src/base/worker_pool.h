// Fixed-size worker pool behind the column-generation pricing DP
// (PostcardOptions::pricing_threads), its only user.
//
// The owner creates the pool once and reuses it for every slot; tasks are
// independent pricing shards merged in file-index order by the caller, so
// the pool needs nothing fancier than a locked queue and a condition
// variable. A pool with zero threads runs every task inline on the caller
// in submission order.
//
// Lives in src/base so src/core can use it without a dependency on any
// layer above.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace postcard::base {

class WorkerPool {
 public:
  /// `num_threads` == 0 builds an inline pool: submit() and run_all()
  /// execute on the calling thread.
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Schedules `task`; the future resolves when it has run (exceptions
  /// propagate through the future).
  std::future<void> submit(std::function<void()> task) EXCLUDES(mu_);

  /// Runs every task and blocks until all have finished. Inline pools
  /// execute them sequentially in index order.
  void run_all(std::vector<std::function<void()>> tasks);

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  /// Opted out of the capability analysis: the condition-variable wait
  /// needs the raw std::mutex (Mutex::native()), whose lock/unlock clang
  /// cannot follow. TSAN covers this loop at runtime.
  void worker_loop() NO_THREAD_SAFETY_ANALYSIS;

  base::Mutex mu_;
  std::condition_variable cv_;
  std::queue<std::packaged_task<void()>> queue_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

}  // namespace postcard::base
