// Online controller: the event-driven runtime around PostcardController.
//
// The offline examples replay a fixed workload batch-by-batch. This one
// runs the src/runtime engine the way an operator would: producer threads
// submit transfer requests through the admission-controlled ingress while
// the driver ticks 5-minute slots, and halfway through the day a link
// fails — the runtime rolls back the dead link's committed (but not yet
// executed) transfers and replans the stranded volume over the surviving
// paths, failing loudly only when no deadline-respecting detour exists.
//
// Build & run:  cmake --build build && ./build/examples/online_controller
#include <cstdio>
#include <thread>
#include <vector>

#include "runtime/runtime.h"

using namespace postcard;

int main() {
  // Six datacenters, complete graph, 100 GB per 5-minute slot per link,
  // unit costs 1..10 (the Fig. 4 shape at reduced scale).
  net::Topology topology =
      net::Topology::complete(6, 100.0, [](int i, int j) {
        return 1.0 + static_cast<double>((3 * i + 5 * j) % 10);
      });

  runtime::ControllerRuntime engine{std::move(topology),
                                    runtime::RuntimeOptions{}};
  engine.add_postcard_backend();

  // Two producer threads submit 40 requests each, release slots spread over
  // the first 16 slots. The ingress rejects structurally hopeless requests
  // (bad endpoints, volume beyond any deadline-feasible capacity) up front.
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&engine, p] {
      for (int i = 0; i < 40; ++i) {
        const int id = 100 * p + i;
        net::FileRequest f;
        f.id = id;
        f.source = id % 6;
        f.destination = (id + 1 + i % 4) % 6;
        if (f.destination == f.source) f.destination = (f.source + 1) % 6;
        f.size = 20.0 + (id % 60);
        f.max_transfer_slots = 1 + id % 3;
        f.release_slot = i % 16;
        engine.ingress().submit(f);
      }
    });
  }
  for (auto& p : producers) p.join();

  // Inject a failure: link 9 dies at slot 8 and comes back at slot 12. The
  // runtime rolls back its committed-but-unexecuted transfers, replans the
  // stranded volume over surviving paths, and books whatever cannot make
  // its deadline anymore as a loud failure.
  engine.fail_link(8, 9);
  engine.restore_link(12, 9);

  engine.run(20);

  const runtime::RuntimeStats stats = engine.stats();
  const runtime::BackendStats& b = stats.backends[0];
  std::printf("submitted            %ld\n", stats.submitted);
  std::printf("admitted             %ld  (ingress rejected %ld)\n",
              stats.admitted, stats.ingress_rejected);
  std::printf("accepted by solver   %ld  (rejected %ld)\n", b.accepted_files,
              b.rejected_files);
  std::printf("delivered volume     %.1f GB\n", b.delivered_volume);
  std::printf("link-down replans    %ld  (%.1f GB rerouted)\n", b.replans,
              b.replanned_volume);
  std::printf("failed after replan  %ld files, %.1f GB\n", b.failed_files,
              b.failed_volume);
  std::printf("mean cost/interval   %.2f\n",
              b.cost_series.empty()
                  ? 0.0
                  : [&] {
                      double s = 0.0;
                      for (double c : b.cost_series) s += c;
                      return s / static_cast<double>(b.cost_series.size());
                    }());
  std::printf("p99 slot latency     %.2f ms over %d slots\n",
              1e3 * stats.slot_latency.quantile(0.99), stats.slots_processed);
  return 0;
}
