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
  Engine eng;
  SimMutex mutex(&eng);
  SimBarrier barrier(&eng, 100);
  std::int64_t shared = 0;
  int barrier_crossings = 0;
  for (int i = 0; i < 500; ++i) {
    eng.spawn(numbered("f", i), [&eng, &mutex, &barrier, &shared, &barrier_crossings, i] {
      Rng rng(static_cast<std::uint64_t>(i));
      for (int step = 0; step < 20; ++step) {
        eng.sleep_for(rng.below(1000) * kNanosecond);
        SimLockGuard guard(mutex);
        ++shared;
      }
      if (i < 100) {
        barrier.arrive_and_wait();
        ++barrier_crossings;
      }
    });
  }
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(shared, 500 * 20);
  EXPECT_EQ(barrier_crossings, 100);
}

class SimDeterminism : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminism, ::testing::Values(1u, 17u, 4242u),
                         [](const auto& param_info) { return numbered("seed", param_info.param); });

TEST_P(SimDeterminism, WholeMachineStateIsReproducible) {
  auto run_once = [&] {
    Engine eng;
    SimMutex mutex(&eng);
    SimCondVar cv(&eng);
    FifoServer server(&eng);
    std::vector<std::int64_t> trace;
    bool ready = false;
    for (int i = 0; i < 40; ++i) {
      eng.spawn(numbered("w", i), [&, i] {
        Rng rng(GetParam() + static_cast<std::uint64_t>(i));
        for (int step = 0; step < 10; ++step) {
          switch (rng.below(4)) {
            case 0: eng.sleep_for(rng.below(10000) * kNanosecond); break;
            case 1: {
              SimLockGuard guard(mutex);
              trace.push_back(i * 100 + step);
              break;
            }
            case 2: server.serve(rng.below(5000) * kNanosecond); break;
            case 3: {
              SimLockGuard guard(mutex);
              if (ready) cv.notify_all();
              break;
            }
          }
        }
        if (i == 0) {
          SimLockGuard guard(mutex);
          ready = true;
          cv.notify_all();
        }
      });
    }
    eng.run();
    return std::make_tuple(eng.now(), eng.events_processed(), trace);
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
