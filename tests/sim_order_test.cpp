// Ordering and shutdown semantics the reliable transport depends on:
//
//  * Channel close()/in-flight interplay — a retransmitted packet "on the
//    wire" when a dispatcher shuts down must still drain, and parked
//    consumers must observe closed-and-empty exactly once; and
//  * FifoServer service order when requests are injected with out-of-order
//    push_at ready times — the server must serialize in *arrival* order
//    (ready time, then push order), never in issue order, with exact
//    busy-time accounting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/channel.hpp"
#include "sim/sync.hpp"
#include "test_util.hpp"

namespace hyp::sim {
namespace {

TEST(ChannelClose, ParkedConsumerDrainsInFlightThenEnds) {
  // Consumer parks first; producer launches an in-flight item and closes
  // immediately. The consumer must wake for the item (at its ready time,
  // not at close time) and only then see closed-and-empty.
  Engine eng;
  Channel<int> ch(&eng);
  std::vector<std::pair<int, Time>> got;
  bool saw_end = false;
  Time end_at = 0;
  eng.spawn("consumer", [&] {
    while (auto item = ch.pop()) got.push_back({*item, eng.now()});
    saw_end = true;
    end_at = eng.now();
  });
  eng.spawn("producer", [&] {
    eng.sleep_for(5 * kNanosecond);  // let the consumer park
    ch.push_at(42, 90 * kNanosecond);
    ch.close();
  });
  EXPECT_TRUE(eng.run().empty());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 42);
  EXPECT_EQ(got[0].second, 90 * kNanosecond);
  EXPECT_TRUE(saw_end);
  EXPECT_EQ(end_at, 90 * kNanosecond);
}

TEST(ChannelClose, MultipleParkedConsumersAllObserveEnd) {
  Engine eng;
  Channel<int> ch(&eng);
  int ended = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn(numbered("consumer", i), [&] {
      if (!ch.pop().has_value()) ++ended;
    });
  }
  eng.spawn("closer", [&] {
    eng.sleep_for(kNanosecond);
    ch.close();
  });
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(ended, 3);
}

TEST(ChannelClose, ItemAndEndSplitAcrossConsumers) {
  // One queued item, two parked consumers, then close: exactly one consumer
  // receives the item, the other observes end-of-channel; nobody hangs.
  Engine eng;
  Channel<int> ch(&eng);
  int received = 0, ended = 0;
  for (int i = 0; i < 2; ++i) {
    eng.spawn(numbered("consumer", i), [&] {
      while (auto item = ch.pop()) received += *item;
      ++ended;
    });
  }
  eng.spawn("producer", [&] {
    eng.sleep_for(kNanosecond);
    ch.push(7);
    ch.close();
  });
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(received, 7);
  EXPECT_EQ(ended, 2);
}

TEST(ChannelClose, InFlightNotVisibleToTryPopUntilReady) {
  Engine eng;
  Channel<int> ch(&eng);
  eng.spawn("t", [&] {
    ch.push_at(1, 50 * kNanosecond);
    ch.close();
    EXPECT_EQ(ch.ready_count(), 0u);       // still on the wire
    EXPECT_FALSE(ch.try_pop().has_value());  // try_pop never blocks, sees none
    eng.sleep_for(60 * kNanosecond);
    EXPECT_EQ(ch.ready_count(), 1u);  // delivered despite close()
    auto v = ch.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 1);
  });
  EXPECT_TRUE(eng.run().empty());
}

TEST(ChannelClose, PushAfterCloseStillDrains) {
  // close() stops nothing at the sender side (a crashing dispatcher may race
  // late retransmits); late pushes drain before consumers see the end.
  Engine eng;
  Channel<int> ch(&eng);
  std::vector<int> got;
  eng.spawn("producer", [&] {
    ch.close();
    ch.push(3);
  });
  eng.spawn("consumer", [&] {
    while (auto item = ch.pop()) got.push_back(*item);
  });
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(got, (std::vector<int>{3}));
}

TEST(FifoServerOrder, OutOfOrderPushAtServesInArrivalOrder) {
  // Requests are *issued* in the order 30ns, 10ns, 20ns but become ready
  // out of issue order. The dispatcher must serve them in ready-time order
  // and back-to-back once the server saturates.
  Engine eng;
  Channel<int> ch(&eng);
  FifoServer server(&eng);
  constexpr TimeDelta kService = 25 * kNanosecond;
  std::vector<std::pair<int, Time>> starts;  // (request id, service start)
  eng.spawn("producer", [&] {
    ch.push_at(3, 30 * kNanosecond);
    ch.push_at(1, 10 * kNanosecond);
    ch.push_at(2, 20 * kNanosecond);
    ch.close();
  });
  eng.spawn("dispatcher", [&] {
    while (auto req = ch.pop()) starts.push_back({*req, server.serve(kService)});
  });
  EXPECT_TRUE(eng.run().empty());
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0].first, 1);
  EXPECT_EQ(starts[1].first, 2);
  EXPECT_EQ(starts[2].first, 3);
  // First starts on arrival; the rest queue behind the 25ns service slots.
  EXPECT_EQ(starts[0].second, 10 * kNanosecond);
  EXPECT_EQ(starts[1].second, 35 * kNanosecond);
  EXPECT_EQ(starts[2].second, 60 * kNanosecond);
  EXPECT_EQ(server.jobs_served(), 3u);
  EXPECT_EQ(server.busy_time(), 3 * kService);
  EXPECT_EQ(server.free_at(), 85 * kNanosecond);
}

TEST(FifoServerOrder, GapBetweenArrivalsIdlesTheServer) {
  // When the queue drains, the next service starts at its own arrival time,
  // not at free_at of the previous burst.
  Engine eng;
  Channel<int> ch(&eng);
  FifoServer server(&eng);
  std::vector<Time> starts;
  eng.spawn("producer", [&] {
    ch.push_at(1, 10 * kNanosecond);
    ch.push_at(2, 500 * kNanosecond);  // long after the first completes
    ch.close();
  });
  eng.spawn("dispatcher", [&] {
    while (auto req = ch.pop()) starts.push_back(server.serve(20 * kNanosecond));
  });
  EXPECT_TRUE(eng.run().empty());
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0], 10 * kNanosecond);
  EXPECT_EQ(starts[1], 500 * kNanosecond);
  EXPECT_EQ(server.busy_time(), 40 * kNanosecond);
}

TEST(FifoServerOrder, ReserveAccountsWithoutBlocking) {
  // reserve() from a single fiber must never advance virtual time yet must
  // serialize occupancy exactly like serve().
  Engine eng;
  FifoServer server(&eng);
  eng.spawn("t", [&] {
    const Time t0 = eng.now();
    EXPECT_EQ(server.reserve(30 * kNanosecond), t0);
    EXPECT_EQ(server.reserve(10 * kNanosecond), t0 + 30 * kNanosecond);
    EXPECT_EQ(eng.now(), t0);  // no time passed
    EXPECT_EQ(server.free_at(), t0 + 40 * kNanosecond);
    // A serve() issued now queues behind both reservations.
    EXPECT_EQ(server.serve(5 * kNanosecond), t0 + 40 * kNanosecond);
    EXPECT_EQ(eng.now(), t0 + 45 * kNanosecond);
  });
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(server.jobs_served(), 3u);
  EXPECT_EQ(server.busy_time(), 45 * kNanosecond);
}

}  // namespace
}  // namespace hyp::sim
