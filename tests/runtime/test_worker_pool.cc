// Worker pool: inline mode ordering, parallel execution, exception
// propagation. Kept under the `runtime` ctest label so the TSAN pass runs
// it alongside the other concurrency suites.
#include "base/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace postcard::base {
namespace {

TEST(WorkerPool, InlinePoolRunsTasksInOrder) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&order, i] { order.push_back(i); });
  }
  pool.run_all(std::move(tasks));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, ThreadedPoolRunsEveryTaskExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int kTasks = 200;
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.run_all(std::move(tasks));  // blocks until all ran
  EXPECT_EQ(count.load(), kTasks);
}

TEST(WorkerPool, ExceptionsPropagateThroughFutures) {
  WorkerPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("solver blew up"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(WorkerPool, ResultsWrittenByWorkersAreVisibleAfterJoin) {
  WorkerPool pool(4);
  constexpr int kTasks = 64;
  std::vector<int> results(kTasks, 0);  // disjoint slots, no locking needed
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&results, i] { results[static_cast<std::size_t>(i)] = i + 1; });
  }
  pool.run_all(std::move(tasks));
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i + 1);
  }
}

TEST(WorkerPool, DestructorJoinsCleanlyWithQueuedWork) {
  std::atomic<int> count{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // destructor drains nothing it shouldn't; submitted futures may or may
     // not have run, but the pool must not crash or leak threads
  SUCCEED();
}

}  // namespace
}  // namespace postcard::base
