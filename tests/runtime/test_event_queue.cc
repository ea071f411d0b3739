// Event queue ordering, the slot cut and thread-safety.
#include "runtime/event.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

namespace postcard::runtime {
namespace {

net::FileRequest file(int id) {
  net::FileRequest f;
  f.id = id;
  f.source = 0;
  f.destination = 1;
  f.size = 1.0;
  f.max_transfer_slots = 1;
  return f;
}

TEST(EventQueue, OrdersBySlotThenPhaseThenSequence) {
  EventQueue q;
  // Push deliberately out of order: a slot-1 arrival, then slot-0
  // arrivals, then a slot-0 capacity change and link failure.
  q.push(1, FileArrival{file(9)});
  q.push(0, FileArrival{file(1)});
  q.push(0, FileArrival{file(2)});
  q.push(0, CapacityChange{2, 50.0});
  q.push(0, LinkDown{3});

  Event e;
  ASSERT_TRUE(q.pop_due(0, &e));
  EXPECT_TRUE(std::holds_alternative<CapacityChange>(e.payload));  // phase 0
  ASSERT_TRUE(q.pop_due(0, &e));
  EXPECT_TRUE(std::holds_alternative<LinkDown>(e.payload));  // then by seq
  ASSERT_TRUE(q.pop_due(0, &e));
  ASSERT_TRUE(std::holds_alternative<FileArrival>(e.payload));
  EXPECT_EQ(std::get<FileArrival>(e.payload).file.id, 1);  // submission order
  ASSERT_TRUE(q.pop_due(0, &e));
  EXPECT_EQ(std::get<FileArrival>(e.payload).file.id, 2);
  EXPECT_FALSE(q.pop_due(0, &e));  // slot-1 arrival is not due yet
  EXPECT_EQ(q.open_slot(), 1);
  ASSERT_TRUE(q.pop_due(1, &e));
  EXPECT_EQ(std::get<FileArrival>(e.payload).file.id, 9);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(EventQueue, PushAfterTheCutFiresInTheNextSlot) {
  // The pop that finds nothing due closes the slot under the queue lock,
  // so a push that arrives after it can only join the next slot's batch,
  // and the arrival's release slot says so.
  EventQueue q;
  net::FileRequest late = file(7);
  late.release_slot = 3;
  Event e;
  EXPECT_FALSE(q.pop_due(3, &e));
  EXPECT_EQ(q.open_slot(), 4);
  const Event queued = q.push(3, FileArrival{late});
  EXPECT_EQ(queued.slot, 4);
  EXPECT_EQ(std::get<FileArrival>(queued.payload).file.release_slot, 4);
  EXPECT_FALSE(q.pop_due(3, &e)) << "a closed slot received an event";
  ASSERT_TRUE(q.pop_due(4, &e));
  EXPECT_EQ(e.slot, 4);
  EXPECT_EQ(std::get<FileArrival>(e.payload).file.release_slot, 4);
  // A push for a slot still open keeps its slot.
  EXPECT_EQ(q.push(9, LinkDown{0}).slot, 9);
}

TEST(EventQueue, PastSlotEventsAreStillPopped) {
  EventQueue q;
  q.push(2, FileArrival{file(1)});
  Event e;
  ASSERT_TRUE(q.pop_due(5, &e));  // due at any slot >= 2
  EXPECT_EQ(e.slot, 2);
}

TEST(EventQueue, SequenceNumbersAreUniqueUnderConcurrentPush) {
  EventQueue q;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::vector<std::uint64_t>> seqs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&q, &seqs, t] {
      for (int i = 0; i < kPerThread; ++i) {
        seqs[t].push_back(
            q.push(i % 4, FileArrival{file(t * kPerThread + i)}).seq);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<std::uint64_t> all;
  for (const auto& s : seqs) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
  EXPECT_EQ(q.depth(), all.size());
  std::uint64_t next_seq = 0;
  EXPECT_EQ(q.pending(&next_seq).size(), all.size());
  EXPECT_EQ(next_seq, all.size());

  // Per-thread sequences must be increasing (each push happens-after the
  // previous one on that thread).
  for (const auto& s : seqs) {
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  }

  // Draining yields events in (slot, phase, seq) order.
  Event e;
  int last_slot = -1;
  std::uint64_t last_seq = 0;
  bool first = true;
  while (q.pop_due(4, &e)) {
    if (!first && e.slot == last_slot) {
      EXPECT_GT(e.seq, last_seq);
    }
    EXPECT_GE(e.slot, last_slot);
    last_slot = e.slot;
    last_seq = e.seq;
    first = false;
  }
  EXPECT_EQ(q.depth(), 0u);
}

}  // namespace
}  // namespace postcard::runtime
