#include "sim/engine.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hyp::sim {
namespace {

TEST(Engine, RunsSingleFiberToCompletion) {
  Engine eng;
  bool ran = false;
  eng.spawn("solo", [&] { ran = true; });
  auto stuck = eng.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(stuck.empty());
}

TEST(Engine, VirtualTimeAdvancesWithSleep) {
  Engine eng;
  Time observed = 0;
  eng.spawn("sleeper", [&] {
    EXPECT_EQ(eng.now(), 0u);
    eng.sleep_for(5 * kMicrosecond);
    EXPECT_EQ(eng.now(), 5 * kMicrosecond);
    eng.sleep_until(8 * kMicrosecond);
    observed = eng.now();
  });
  eng.run();
  EXPECT_EQ(observed, 8 * kMicrosecond);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.post(3 * kNanosecond, [&] { order.push_back(3); });
  eng.post(1 * kNanosecond, [&] { order.push_back(1); });
  eng.post(2 * kNanosecond, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTimeEventsFireInPostOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.post(7 * kNanosecond, [&order, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, FibersInterleaveDeterministically) {
  // Two runs of the same program produce identical interleavings.
  auto trace_run = [] {
    Engine eng;
    std::vector<std::string> trace;
    for (int f = 0; f < 3; ++f) {
      eng.spawn(numbered("f", f), [&eng, &trace, f] {
        for (int step = 0; step < 3; ++step) {
          trace.push_back(std::to_string(f) + ":" + std::to_string(step));
          eng.sleep_for((f + 1) * kNanosecond);
        }
      });
    }
    eng.run();
    return trace;
  };
  EXPECT_EQ(trace_run(), trace_run());
}

TEST(Engine, ParkUnparkRoundTrip) {
  Engine eng;
  Fiber* sleeper = nullptr;
  bool woke = false;
  sleeper = eng.spawn("sleeper", [&] {
    eng.park();
    woke = true;
  });
  eng.spawn("waker", [&] {
    eng.sleep_for(10 * kNanosecond);
    eng.unpark(sleeper);
  });
  auto stuck = eng.run();
  EXPECT_TRUE(woke);
  EXPECT_TRUE(stuck.empty());
}

TEST(Engine, PermitMakesNextParkImmediate) {
  Engine eng;
  Fiber* target = nullptr;
  Time wake_time = 0;
  target = eng.spawn("target", [&] {
    eng.sleep_for(20 * kNanosecond);  // permit arrives while sleeping
    eng.park();                       // consumes the permit, no block
    wake_time = eng.now();
  });
  eng.spawn("early-waker", [&] { eng.unpark(target); });
  eng.run();
  EXPECT_EQ(wake_time, 20 * kNanosecond);
}

TEST(Engine, JoinWaitsForCompletion) {
  Engine eng;
  Time join_time = 0;
  Fiber* worker = eng.spawn("worker", [&] { eng.sleep_for(kMicrosecond); });
  eng.spawn("joiner", [&] {
    eng.join(worker);
    join_time = eng.now();
    EXPECT_TRUE(worker->done());
  });
  eng.run();
  EXPECT_EQ(join_time, kMicrosecond);
}

TEST(Engine, JoinOnDoneFiberReturnsImmediately) {
  Engine eng;
  Fiber* worker = eng.spawn("worker", [] {});
  eng.spawn("late-joiner", [&] {
    Engine::current()->sleep_for(5 * kNanosecond);
    eng.join(worker);
    EXPECT_EQ(eng.now(), 5 * kNanosecond);
  });
  eng.run();
}

TEST(Engine, DeadlockedFiberReportedByName) {
  Engine eng;
  eng.spawn("stuck-forever", [&] { eng.park(); });
  auto stuck = eng.run();
  ASSERT_EQ(stuck.size(), 1u);
  EXPECT_EQ(stuck[0], "stuck-forever");
}

TEST(Engine, DaemonsMayRemainParked) {
  Engine eng;
  eng.spawn_daemon("dispatcher", [&] { eng.park(); });
  auto stuck = eng.run();
  EXPECT_TRUE(stuck.empty());
}

TEST(Engine, SpawnFromInsideFiber) {
  Engine eng;
  std::vector<int> order;
  eng.spawn("parent", [&] {
    order.push_back(1);
    Fiber* child = eng.spawn("child", [&] { order.push_back(2); });
    eng.join(child);
    order.push_back(3);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, YieldReordersBehindSameTimeWork) {
  Engine eng;
  std::vector<std::string> order;
  eng.spawn("a", [&] {
    order.push_back("a1");
    eng.yield();
    order.push_back("a2");
  });
  eng.spawn("b", [&] { order.push_back("b"); });
  eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b", "a2"}));
}

TEST(Engine, ManyFibersDeepRecursionOnOwnStacks) {
  Engine eng;
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    eng.spawn(numbered("rec", i), [&eng, &completed] {
      // Burn some stack to prove fibers have independent stacks.
      auto recurse = [](auto&& self, int depth) -> int {
        volatile char pad[512];
        pad[0] = static_cast<char>(depth);
        if (depth == 0) return pad[0];
        return self(self, depth - 1) + 1;
      };
      EXPECT_EQ(recurse(recurse, 100), 100);
      eng.sleep_for(kNanosecond);
      ++completed;
    });
  }
  eng.run();
  EXPECT_EQ(completed, 50);
}

TEST(Engine, CountsSwitchesAndEvents) {
  Engine eng;
  eng.spawn("w", [&] { eng.sleep_for(kNanosecond); });
  eng.run();
  EXPECT_GE(eng.context_switches(), 2u);
  EXPECT_GE(eng.events_processed(), 2u);
}

TEST(EngineDeath, SleepOutsideFiberAborts) {
  Engine eng;
  EXPECT_DEATH(eng.sleep_for(1), "outside a fiber");
}

TEST(EngineDeath, PostIntoThePastAborts) {
  Engine eng;
  eng.spawn("t", [&] {
    eng.sleep_for(kMicrosecond);
    eng.post(0, [] {});
  });
  EXPECT_DEATH(eng.run(), "past");
}

}  // namespace
}  // namespace hyp::sim
