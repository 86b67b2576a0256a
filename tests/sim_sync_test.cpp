#include "sim/sync.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hyp::sim {
namespace {

TEST(SimMutex, MutualExclusion) {
  Engine eng;
  SimMutex m(&eng);
  int in_section = 0;
  int max_in_section = 0;
  for (int i = 0; i < 4; ++i) {
    eng.spawn(numbered("worker", i), [&] {
      for (int rep = 0; rep < 10; ++rep) {
        SimLockGuard guard(m);
        ++in_section;
        max_in_section = std::max(max_in_section, in_section);
        eng.sleep_for(kNanosecond);  // hold across a scheduling point
        --in_section;
      }
    });
  }
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(max_in_section, 1);
}

TEST(SimMutex, FifoHandoff) {
  Engine eng;
  SimMutex m(&eng);
  std::vector<int> order;
  eng.spawn("holder", [&] {
    m.lock();
    eng.sleep_for(10 * kNanosecond);  // let contenders queue in id order
    m.unlock();
  });
  for (int i = 0; i < 3; ++i) {
    eng.spawn(numbered("c", i), [&eng, &m, &order, i] {
      eng.sleep_for(static_cast<TimeDelta>(i + 1) * kNanosecond);
      m.lock();
      order.push_back(i);
      m.unlock();
    });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimMutex, TryLock) {
  Engine eng;
  SimMutex m(&eng);
  eng.spawn("a", [&] {
    EXPECT_TRUE(m.try_lock());
    eng.sleep_for(5 * kNanosecond);
    m.unlock();
  });
  eng.spawn("b", [&] {
    eng.sleep_for(kNanosecond);
    EXPECT_FALSE(m.try_lock());
    eng.sleep_for(10 * kNanosecond);
    EXPECT_TRUE(m.try_lock());
    m.unlock();
  });
  EXPECT_TRUE(eng.run().empty());
}

TEST(SimMutexDeath, RecursiveLockAborts) {
  Engine eng;
  SimMutex m(&eng);
  eng.spawn("rec", [&] {
    m.lock();
    m.lock();
  });
  EXPECT_DEATH(eng.run(), "recursive");
}

TEST(SimMutexDeath, ForeignUnlockAborts) {
  Engine eng;
  SimMutex m(&eng);
  eng.spawn("locker", [&] {
    m.lock();
    eng.sleep_for(10 * kNanosecond);
    m.unlock();
  });
  eng.spawn("thief", [&] {
    eng.sleep_for(kNanosecond);
    m.unlock();
  });
  EXPECT_DEATH(eng.run(), "non-owner");
}

TEST(SimCondVar, WaitNotifyOne) {
  Engine eng;
  SimMutex m(&eng);
  SimCondVar cv(&eng);
  bool ready = false;
  Time consumer_woke = 0;
  eng.spawn("consumer", [&] {
    SimLockGuard guard(m);
    while (!ready) cv.wait(m);
    consumer_woke = eng.now();
  });
  eng.spawn("producer", [&] {
    eng.sleep_for(3 * kMicrosecond);
    SimLockGuard guard(m);
    ready = true;
    cv.notify_one();
  });
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(consumer_woke, 3 * kMicrosecond);
}

TEST(SimCondVar, NotifyAllWakesEveryWaiter) {
  Engine eng;
  SimMutex m(&eng);
  SimCondVar cv(&eng);
  bool go = false;
  int woke = 0;
  for (int i = 0; i < 5; ++i) {
    eng.spawn(numbered("w", i), [&] {
      SimLockGuard guard(m);
      while (!go) cv.wait(m);
      ++woke;
    });
  }
  eng.spawn("broadcaster", [&] {
    eng.sleep_for(kMicrosecond);
    SimLockGuard guard(m);
    go = true;
    cv.notify_all();
  });
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(woke, 5);
}

TEST(SimCondVar, NotifyWithoutWaitersIsLost) {
  // Condition variables do not latch signals: a notify with nobody waiting
  // must not wake a later waiter (that is what the predicate loop is for).
  Engine eng;
  SimMutex m(&eng);
  SimCondVar cv(&eng);
  eng.spawn("early-notify", [&] {
    SimLockGuard guard(m);
    cv.notify_one();
  });
  Fiber* late = eng.spawn("late-waiter", [&] {
    eng.sleep_for(kMicrosecond);
    SimLockGuard guard(m);
    cv.wait(m);  // never signaled again -> stays blocked
  });
  auto stuck = eng.run();
  ASSERT_EQ(stuck.size(), 1u);
  EXPECT_EQ(stuck[0], late->name());
}

TEST(SimBarrier, ReleasesAllPartiesTogether) {
  Engine eng;
  SimBarrier barrier(&eng, 3);
  std::vector<Time> release_times;
  for (int i = 0; i < 3; ++i) {
    eng.spawn(numbered("p", i), [&eng, &barrier, &release_times, i] {
      eng.sleep_for(static_cast<TimeDelta>(i * 10) * kNanosecond);
      barrier.arrive_and_wait();
      release_times.push_back(eng.now());
    });
  }
  EXPECT_TRUE(eng.run().empty());
  ASSERT_EQ(release_times.size(), 3u);
  for (Time t : release_times) EXPECT_EQ(t, 20 * kNanosecond);  // slowest party
}

TEST(SimBarrier, ReusableAcrossGenerations) {
  Engine eng;
  SimBarrier barrier(&eng, 2);
  int rounds_done = 0;
  for (int i = 0; i < 2; ++i) {
    eng.spawn(numbered("p", i), [&eng, &barrier, &rounds_done, i] {
      for (int round = 0; round < 5; ++round) {
        eng.sleep_for(static_cast<TimeDelta>(i + 1) * kNanosecond);
        barrier.arrive_and_wait();
      }
      ++rounds_done;
    });
  }
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(rounds_done, 2);
}

TEST(FifoServer, SerializesOverlappingRequests) {
  Engine eng;
  FifoServer server(&eng);
  std::vector<Time> completions;
  for (int i = 0; i < 3; ++i) {
    eng.spawn(numbered("client", i), [&eng, &server, &completions] {
      server.serve(10 * kMicrosecond);
      completions.push_back(eng.now());
    });
  }
  eng.run();
  EXPECT_EQ(completions,
            (std::vector<Time>{10 * kMicrosecond, 20 * kMicrosecond, 30 * kMicrosecond}));
  EXPECT_EQ(server.jobs_served(), 3u);
  EXPECT_EQ(server.busy_time(), 30 * kMicrosecond);
}

TEST(FifoServer, IdleServerStartsImmediately) {
  Engine eng;
  FifoServer server(&eng);
  eng.spawn("client", [&] {
    eng.sleep_for(100 * kMicrosecond);
    Time start = server.serve(kMicrosecond);
    EXPECT_EQ(start, 100 * kMicrosecond);
    EXPECT_EQ(eng.now(), 101 * kMicrosecond);
  });
  eng.run();
}

TEST(FifoServer, ReserveAccountsWithoutBlocking) {
  Engine eng;
  FifoServer server(&eng);
  eng.spawn("client", [&] {
    Time start = server.reserve(5 * kMicrosecond);
    EXPECT_EQ(start, 0u);
    EXPECT_EQ(eng.now(), 0u);  // reserve does not advance the caller
    EXPECT_EQ(server.free_at(), 5 * kMicrosecond);
  });
  eng.run();
}

}  // namespace
}  // namespace hyp::sim
