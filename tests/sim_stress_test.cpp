// Stress and property tests of the simulation engine: many fibers, seeded
// random synchronization patterns, determinism of the whole machine.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "test_util.hpp"

namespace hyp::sim {
namespace {

TEST(SimStress, FiveHundredFibersWithMixedBlocking) {
  // Sleeps, FIFO service, a park/unpark rendezvous of the first 100 fibers
  // and joins of the other 400 on earlier fibers, interleaved.
  Engine eng;
  FifoServer server(&eng);
  std::vector<Fiber*> fibers;
  std::vector<Fiber*> parked;
  bool released = false;
  std::int64_t shared = 0;
  int rendezvous_crossings = 0;
  int joins_returned = 0;
  for (int i = 0; i < 500; ++i) {
    fibers.push_back(eng.spawn(numbered("f", i), [&, i] {
      Rng rng(static_cast<std::uint64_t>(i));
      for (int step = 0; step < 20; ++step) {
        eng.sleep_for(rng.below(1000) * kNanosecond);
        server.serve(rng.below(100) * kNanosecond);
        ++shared;
      }
      if (i < 100) {
        // The 100th arrival wakes the 99 parked before it.
        if (parked.size() == 99) {
          released = true;
          for (Fiber* f : parked) eng.unpark(f);
        } else {
          parked.push_back(eng.current_fiber());
          while (!released) eng.park();
        }
        ++rendezvous_crossings;
      } else {
        eng.join(fibers[static_cast<std::size_t>(i - 100)]);
        EXPECT_TRUE(fibers[static_cast<std::size_t>(i - 100)]->done());
        ++joins_returned;
      }
    }));
  }
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(shared, 500 * 20);
  EXPECT_EQ(server.jobs_served(), 500u * 20u);
  EXPECT_EQ(rendezvous_crossings, 100);
  EXPECT_EQ(joins_returned, 400);
}

class SimDeterminism : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminism, ::testing::Values(1u, 17u, 4242u),
                         [](const auto& param_info) { return numbered("seed", param_info.param); });

TEST_P(SimDeterminism, WholeMachineStateIsReproducible) {
  // Seeded random mixes of sleep, FIFO service, park until a posted event
  // unparks the fiber, and joins on earlier fibers; two runs must agree on
  // the clock, the event and switch counts and every recorded step.
  auto run_once = [&] {
    Engine eng;
    FifoServer server(&eng);
    std::vector<Fiber*> fibers;
    std::vector<std::tuple<int, int, Time>> trace;
    for (int i = 0; i < 40; ++i) {
      fibers.push_back(eng.spawn(numbered("w", i), [&, i] {
        Rng rng(GetParam() + static_cast<std::uint64_t>(i));
        for (int step = 0; step < 10; ++step) {
          switch (rng.below(4)) {
            case 0: eng.sleep_for(rng.below(10000) * kNanosecond); break;
            case 1: server.serve(rng.below(5000) * kNanosecond); break;
            case 2: {
              Fiber* self = eng.current_fiber();
              eng.post(eng.now() + rng.below(5000) * kNanosecond,
                       [&eng, self] { eng.unpark(self); });
              eng.park();
              break;
            }
            case 3:
              if (i > 0) eng.join(fibers[rng.below(static_cast<std::uint64_t>(i))]);
              break;
          }
          trace.emplace_back(i, step, eng.now());
        }
      }));
    }
    EXPECT_TRUE(eng.run().empty());
    return std::make_tuple(eng.now(), eng.events_processed(), eng.context_switches(), trace);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimStress, DeepJoinChains) {
  // Each fiber spawns and joins the next, 200 deep.
  Engine eng;
  int depth_reached = 0;
  std::function<void(int)> descend = [&](int depth) {
    depth_reached = std::max(depth_reached, depth);
    if (depth == 200) return;
    Fiber* child = eng.spawn(numbered("d", depth), [&, depth] { descend(depth + 1); });
    eng.join(child);
  };
  eng.spawn("root", [&] { descend(1); });
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(depth_reached, 200);
}

TEST(SimStress, FifoServerThroughputAccounting) {
  // Total busy time equals the sum of all service requests regardless of
  // arrival pattern; completion never precedes arrival + service.
  Engine eng;
  FifoServer server(&eng);
  TimeDelta total_requested = 0;
  for (int i = 0; i < 100; ++i) {
    eng.spawn(numbered("client", i), [&, i] {
      Rng rng(static_cast<std::uint64_t>(i));
      eng.sleep_for(rng.below(50) * kMicrosecond);
      const TimeDelta d = (1 + rng.below(20)) * kMicrosecond;
      total_requested += d;
      const Time arrival = eng.now();
      server.serve(d);
      EXPECT_GE(eng.now(), arrival + d);
    });
  }
  eng.run();
  EXPECT_EQ(server.busy_time(), total_requested);
  EXPECT_EQ(server.jobs_served(), 100u);
}

TEST(SimStress, ManyTimersFireInExactOrder) {
  Engine eng;
  Rng rng(2024);
  std::vector<Time> fire_times;
  std::vector<Time> scheduled;
  for (int i = 0; i < 2000; ++i) {
    const Time at = rng.below(1000000) * kNanosecond;
    scheduled.push_back(at);
    eng.post(at, [&fire_times, &eng] { fire_times.push_back(eng.now()); });
  }
  eng.run();
  ASSERT_EQ(fire_times.size(), scheduled.size());
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
  std::sort(scheduled.begin(), scheduled.end());
  EXPECT_EQ(fire_times, scheduled);
}

}  // namespace
}  // namespace hyp::sim
