// Multi-producer ingress: admission control, counter consistency and
// concurrent submission while the driver ticks (the TSAN target).
#include "runtime/ingress.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/runtime.h"

namespace postcard::runtime {
namespace {

net::Topology square() {
  return net::Topology::complete(4, 100.0, [](int, int) { return 2.0; });
}

net::FileRequest file(int id, int src, int dst, double size, int deadline,
                      int release) {
  return net::FileRequest{id, src, dst, size, deadline, release};
}

// Accepts everything and charges nothing: isolates the ingress/queue/driver
// machinery from LP solve cost in the stress tests.
class AcceptAllPolicy : public sim::SchedulingPolicy {
 public:
  explicit AcceptAllPolicy(int num_links) : charge_(num_links) {}
  sim::ScheduleOutcome schedule(
      int, const std::vector<net::FileRequest>& files) override {
    sim::ScheduleOutcome outcome;
    for (const net::FileRequest& f : files) outcome.accepted_ids.push_back(f.id);
    return outcome;
  }
  double cost_per_interval() const override { return 0.0; }
  const charging::ChargeState& charge_state() const override { return charge_; }
  std::string name() const override { return "accept-all"; }

 private:
  charging::ChargeState charge_;
};

TEST(RequestIngress, RejectsMalformedAndStructurallyHopelessRequests) {
  EventQueue queue;
  const net::Topology t = square();
  RequestIngress ingress(t, queue);

  EXPECT_FALSE(ingress.submit(file(1, 0, 0, 5.0, 1, 0)).admitted);   // src==dst
  EXPECT_FALSE(ingress.submit(file(2, 0, 9, 5.0, 1, 0)).admitted);   // bad node
  EXPECT_FALSE(ingress.submit(file(3, 0, 1, -1.0, 1, 0)).admitted);  // size<=0
  // 3 egress links x 100 GB x 2 slots = 600 GB is the hard ceiling.
  EXPECT_FALSE(ingress.submit(file(4, 0, 1, 601.0, 2, 0)).admitted);
  EXPECT_TRUE(ingress.submit(file(5, 0, 1, 599.0, 2, 0)).admitted);

  EXPECT_EQ(ingress.submitted(), 5);
  EXPECT_EQ(ingress.admitted(), 1);
  EXPECT_EQ(ingress.rejected(), 4);
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(RequestIngress, LinkFailureTightensAdmission) {
  EventQueue queue;
  net::Topology t(2);
  t.set_link(0, 1, 50.0, 1.0);
  RequestIngress ingress(t, queue);

  EXPECT_TRUE(ingress.submit(file(1, 0, 1, 40.0, 1, 0)).admitted);
  ingress.set_link_capacity(0, 0.0);  // the only egress dies
  const AdmissionResult r = ingress.submit(file(2, 0, 1, 40.0, 1, 0));
  EXPECT_FALSE(r.admitted);
  EXPECT_FALSE(r.reason.empty());
  ingress.set_link_capacity(0, 50.0);
  EXPECT_TRUE(ingress.submit(file(3, 0, 1, 40.0, 1, 0)).admitted);
}

TEST(RequestIngress, PastReleaseSlotsAreRestamped) {
  EventQueue queue;
  RequestIngress ingress(square(), queue);
  ingress.set_now(5);
  const AdmissionResult r = ingress.submit(file(1, 0, 1, 5.0, 1, 2));
  ASSERT_TRUE(r.admitted);
  EXPECT_EQ(r.slot, 5);  // never joins a batch in the past
}

TEST(RequestIngress, CountersAreExactUnderConcurrentProducers) {
  EventQueue queue;
  RequestIngress ingress(square(), queue);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 400;
  std::atomic<long> expect_admitted{0};

  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&ingress, &expect_admitted, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int id = t * kPerThread + i;
        // Every 5th request is malformed (src == dst) and must be rejected.
        const int dst = (i % 5 == 0) ? 1 : 1 + (id % 3);
        const int src = (i % 5 == 0) ? 1 : 0;
        const auto r =
            ingress.submit(file(id, src, dst, 5.0, 1 + id % 3, id % 7));
        if (r.admitted) expect_admitted.fetch_add(1);
      }
    });
  }
  for (auto& p : producers) p.join();

  EXPECT_EQ(ingress.submitted(), kThreads * kPerThread);
  EXPECT_EQ(ingress.admitted(), expect_admitted.load());
  EXPECT_EQ(ingress.admitted() + ingress.rejected(), ingress.submitted());
  EXPECT_EQ(queue.depth(), static_cast<std::size_t>(ingress.admitted()));
}

TEST(RuntimeIngress, ProducersSubmitWhileDriverTicks) {
  // The end-to-end concurrency scenario: producers hammer the ingress while
  // the driver thread ticks slots and runs the solves. After the queue
  // drains, every admitted file is accounted exactly once.
  const net::Topology t = square();
  ControllerRuntime runtime{net::Topology(t), RuntimeOptions{}};
  runtime.add_backend(std::make_unique<AcceptAllPolicy>(t.num_links()));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kThreads; ++p) {
    producers.emplace_back([&runtime, p] {
      for (int i = 0; i < kPerThread; ++i) {
        const int id = p * kPerThread + i;
        runtime.ingress().submit(file(id, id % 4, (id + 1) % 4, 1.0, 2, i % 8));
      }
    });
  }
  // Tick concurrently with the producers, then drain what is left.
  for (int slot = 0; slot < 8; ++slot) runtime.tick();
  for (auto& p : producers) p.join();
  while (runtime.events().depth() > 0) runtime.tick();
  runtime.flush_in_flight();

  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.admitted, stats.submitted);  // all requests well-formed
  EXPECT_EQ(stats.queue_depth, 0u);
  const BackendStats& b = stats.backends[0];
  EXPECT_EQ(b.accepted_files, stats.admitted);
  EXPECT_EQ(b.rejected_files, 0);
  EXPECT_GT(stats.slots_processed, 7);
  EXPECT_GT(stats.slot_latency.count(), 0);
}

TEST(RuntimeIngress, RealPostcardBackendUnderConcurrentSubmission) {
  // Same shape with the real controller — small volume so the LP work
  // stays light; this is the TSAN hot path.
  ControllerRuntime runtime{square(), RuntimeOptions{}};
  runtime.add_postcard_backend();

  constexpr int kThreads = 2;
  constexpr int kPerThread = 10;
  std::vector<std::thread> producers;
  for (int p = 0; p < kThreads; ++p) {
    producers.emplace_back([&runtime, p] {
      for (int i = 0; i < kPerThread; ++i) {
        const int id = p * kPerThread + i;
        runtime.ingress().submit(
            file(id, id % 4, (id + 2) % 4, 8.0, 1 + id % 3, i % 4));
      }
    });
  }
  for (auto& p : producers) p.join();
  runtime.run(5);

  const RuntimeStats stats = runtime.stats();
  const BackendStats& b = stats.backends[0];
  EXPECT_EQ(b.accepted_files + b.rejected_files, stats.admitted);
  EXPECT_EQ(b.failed_files, 0);
  EXPECT_NEAR(b.delivered_volume, b.accepted_volume, 1e-6);
}

}  // namespace
}  // namespace postcard::runtime
