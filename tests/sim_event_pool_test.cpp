// Unit tests for the engine's pooled event queue: (time, seq) ordering must
// be exact, callback slots must recycle through the free list, and the
// steady-state churn path must be allocation-free.
//
// The allocation-counting hook (alloc_hook.hpp) replaces the global operator
// new/delete for THIS test binary only. It merely counts; behavior is
// unchanged, so the other tests in the binary are unaffected.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_hook.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace hyp::sim {
namespace {

TEST(EventPool, CallbacksFireInTimeThenSeqOrder) {
  Engine eng;
  std::vector<int> order;
  eng.post(30, [&] { order.push_back(3); });
  eng.post(10, [&] { order.push_back(1); });
  eng.post(20, [&] { order.push_back(2); });
  // Same-time events keep creation order (the seq tiebreak).
  eng.post(20, [&] { order.push_back(21); });
  eng.post(10, [&] { order.push_back(11); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2, 21, 3}));
}

TEST(EventPool, SeqTiebreakInterleavesFibersAndCallbacksByCreation) {
  Engine eng;
  std::vector<int> order;
  // All at t=0: fiber spawn (wakeup event), then two callbacks, then another
  // fiber. Creation sequence must be the execution sequence.
  eng.spawn("a", [&] { order.push_back(1); });
  eng.post(0, [&] { order.push_back(2); });
  eng.post(0, [&] { order.push_back(3); });
  eng.spawn("b", [&] { order.push_back(4); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventPool, FreeListRecyclesCallbackSlots) {
  Engine eng;
  int fired = 0;
  auto storm = [&](int count) {
    for (int i = 0; i < count; ++i) {
      eng.post(eng.now() + 1 + i, [&fired] { ++fired; });
    }
    eng.run();
  };
  storm(64);
  const std::size_t slots_after_warmup = eng.callback_pool_slots();
  EXPECT_GE(slots_after_warmup, 64u);
  // Every slot must be back on the free list at quiescence.
  EXPECT_EQ(eng.callback_pool_free(), slots_after_warmup);

  // Same storm again: all slots come from the free list, none are created.
  storm(64);
  EXPECT_EQ(eng.callback_pool_slots(), slots_after_warmup);
  EXPECT_EQ(eng.callback_pool_free(), slots_after_warmup);
  EXPECT_EQ(fired, 128);
}

TEST(EventPool, SpawnSleepUnparkChurnKeepsOrderingAndQuiesces) {
  Engine eng;
  std::vector<Fiber*> sleepers;
  std::uint64_t wakeups = 0;
  // Sleepers park; a driver unparks them in a deterministic rotation while
  // itself sleeping — heavy (time, seq) churn across the heap.
  for (int i = 0; i < 16; ++i) {
    sleepers.push_back(eng.spawn(numbered("sleeper", i), [&eng, &wakeups] {
      for (int r = 0; r < 50; ++r) {
        eng.park();
        ++wakeups;
        eng.sleep_for(3);
      }
    }));
  }
  eng.spawn("driver", [&] {
    for (int r = 0; r < 50; ++r) {
      for (Fiber* f : sleepers) eng.unpark(f);
      eng.sleep_for(10);
    }
  });
  const auto stuck = eng.run();
  EXPECT_TRUE(stuck.empty());
  EXPECT_EQ(wakeups, 16u * 50u);
  EXPECT_EQ(eng.pending_events(), 0u);
}

TEST(EventPool, SteadyStateFiberChurnIsAllocationFree) {
  Engine eng;
  std::uint64_t during = 1;  // poisoned; set by the fiber
  eng.spawn("churn", [&] {
    // Warm up: first sleeps may grow the event heap's backing vector.
    for (int i = 0; i < 256; ++i) eng.sleep_for(5);
    const std::uint64_t before = allocs();
    for (int i = 0; i < 20'000; ++i) eng.sleep_for(5);
    during = allocs() - before;
  });
  eng.run();
  EXPECT_EQ(during, 0u) << "sleep/wakeup events must not allocate";
}

TEST(EventPool, SteadyStatePostedCallbacksAreAllocationFree) {
  Engine eng;
  std::uint64_t during = 1;
  std::uint64_t sink = 0;
  eng.spawn("poster", [&] {
    auto post_round = [&] {
      // Small capture: must ride the UniqueFunction inline buffer and a
      // recycled pool slot.
      for (int k = 0; k < 32; ++k) {
        eng.post(eng.now() + 1 + k, [&sink, k] { sink += static_cast<std::uint64_t>(k); });
      }
      eng.sleep_for(64);  // let them all fire
    };
    for (int i = 0; i < 8; ++i) post_round();  // warm slots + free list
    const std::uint64_t before = allocs();
    for (int i = 0; i < 512; ++i) post_round();
    during = allocs() - before;
  });
  eng.run();
  EXPECT_EQ(during, 0u) << "post() must reuse pooled slots and inline storage";
  EXPECT_GT(sink, 0u);
}

TEST(EventPool, LargeCallbacksStillWorkViaHeapPath) {
  // Captures bigger than the inline buffer fall back to heap storage —
  // correctness must be unaffected.
  Engine eng;
  struct Big {
    std::uint64_t words[40] = {};
  } big;
  big.words[39] = 1234;
  std::uint64_t seen = 0;
  eng.post(5, [big, &seen] { seen = big.words[39]; });
  eng.run();
  EXPECT_EQ(seen, 1234u);
}

}  // namespace
}  // namespace hyp::sim
