#include "sim/engine.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
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

// A fiber whose own wakeup is the next event resumes in place: sleep_until
// and yield with nothing due by their time, and an unpark from a callback
// with nothing due ahead of it. The schedule mixes those with queued
// wakeups; the log, the event count and the switch count are exactly those
// of one queue round trip per wakeup.
TEST(Engine, InPlaceResumeKeepsTimeSeqOrder) {
  Engine eng;
  std::vector<std::pair<Time, std::string>> log;
  auto note = [&](std::string what) { log.emplace_back(eng.now(), std::move(what)); };
  eng.spawn("s", [&] {
    for (int i = 1; i <= 4; ++i) {
      eng.sleep_for(10);
      note(numbered("s", i));
    }
    eng.yield();  // nothing else due at 40: in place
    note("s-yield");
  });
  eng.spawn("y", [&] {
    eng.yield();  // p's first wakeup is due at 0: queued behind it
    note("y-yield");
    eng.sleep_until(20);
    note("y20");
    eng.yield();
    note("y20-yield");
  });
  Fiber* p = eng.spawn("p", [&] {
    for (int i = 0; i < 3; ++i) {
      eng.park();
      note("p-woke");
      eng.sleep_for(1);
      note("p-slept");
    }
  });
  eng.post(15, [&] {
    note("cb15");
    eng.unpark(p);  // nothing due at 15: in place, ahead of what follows
    eng.post(15, [&] { note("cb15-later"); });
  });
  eng.post(20, [&] {
    note("cb20");
    eng.unpark(p);  // y and s wake at 20 too: queued behind them
  });
  eng.post(35, [&] {
    note("cb35");
    eng.unpark(p);
    eng.unpark(p);  // already woken: a permit
  });
  EXPECT_TRUE(eng.run().empty());
  const std::vector<std::pair<Time, std::string>> want = {
      {0, "y-yield"},  {10, "s1"},         {15, "cb15"},     {15, "p-woke"},
      {15, "cb15-later"}, {16, "p-slept"}, {20, "cb20"},     {20, "y20"},
      {20, "s2"},      {20, "p-woke"},     {20, "y20-yield"}, {21, "p-slept"},
      {30, "s3"},      {35, "cb35"},       {35, "p-woke"},   {36, "p-slept"},
      {40, "s4"},      {40, "s-yield"}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(eng.events_processed(), 21u);
  EXPECT_EQ(eng.context_switches(), 31u);
  // cb15's and cb35's unparks, p's sleep to 36 and s's yield at 40.
  EXPECT_EQ(eng.in_place_resumes(), 4u);
}

TEST(EngineDeath, PostReservedAheadOfACallbackUnparkAborts) {
  // The seq reserved at t=40 is older than the in-place unpark's: at t=50
  // its event would have to run before the wakeup already taken as next.
  Engine eng;
  Fiber* p = eng.spawn("p", [&] { eng.park(); });
  std::uint64_t reserved = 0;
  eng.post(50, [&] {
    eng.unpark(p);
    eng.post_reserved(0, 50, reserved, [] {});
  });
  eng.post(40, [&] { reserved = eng.reserve_seq(); });
  EXPECT_DEATH(eng.run(), "precedes a callback's in-place unpark");
}

TEST(EngineDeath, PostReservedBeforeTheDispatchedEventAborts) {
  Engine eng;
  eng.spawn("t", [&] {
    const std::uint64_t seq = eng.reserve_seq();
    eng.sleep_for(kMicrosecond);
    // Same instant as the wakeup being dispatched, but an older seq: the
    // event would have run before it.
    eng.post_reserved(0, eng.now(), seq, [] {});
  });
  EXPECT_DEATH(eng.run(), "precedes the one being dispatched");
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
