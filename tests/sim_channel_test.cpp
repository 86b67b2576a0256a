#include "sim/channel.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hyp::sim {
namespace {

TEST(Channel, ImmediatePushPop) {
  Engine eng;
  Channel<int> ch(&eng);
  std::vector<int> got;
  eng.spawn("producer", [&] {
    ch.push(1);
    ch.push(2);
  });
  eng.spawn("consumer", [&] {
    got.push_back(*ch.pop());
    got.push_back(*ch.pop());
  });
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Channel, TimedDeliveryBlocksUntilReady) {
  Engine eng;
  Channel<std::string> ch(&eng);
  Time arrival = 0;
  eng.spawn("producer", [&] { ch.push_at("page", 42 * kMicrosecond); });
  eng.spawn("consumer", [&] {
    auto item = ch.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, "page");
    arrival = eng.now();
  });
  eng.run();
  EXPECT_EQ(arrival, 42 * kMicrosecond);
}

TEST(Channel, DeliveryOrderFollowsReadyTime) {
  Engine eng;
  Channel<int> ch(&eng);
  std::vector<int> got;
  eng.spawn("producer", [&] {
    ch.push_at(2, 20 * kNanosecond);
    ch.push_at(1, 10 * kNanosecond);
  });
  eng.spawn_daemon("consumer", [&] {
    while (auto item = ch.pop()) got.push_back(*item);
  });
  eng.spawn("closer", [&] {
    eng.sleep_for(kMicrosecond);
    ch.close();
  });
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Channel, CloseDrainsInFlightItems) {
  // A message already "on the wire" at close() must still be delivered.
  Engine eng;
  Channel<int> ch(&eng);
  std::vector<int> got;
  eng.spawn("producer", [&] {
    ch.push_at(7, 30 * kNanosecond);
    ch.close();
  });
  eng.spawn("consumer", [&] {
    while (auto item = ch.pop()) got.push_back(*item);
  });
  EXPECT_TRUE(eng.run().empty());
  EXPECT_EQ(got, (std::vector<int>{7}));
}

TEST(Channel, PopOnClosedEmptyReturnsNullopt) {
  Engine eng;
  Channel<int> ch(&eng);
  bool saw_end = false;
  eng.spawn("consumer", [&] {
    ch.close();
    saw_end = !ch.pop().has_value();
  });
  eng.run();
  EXPECT_TRUE(saw_end);
}

TEST(Channel, TryPopNeverBlocks) {
  Engine eng;
  Channel<int> ch(&eng);
  eng.spawn("t", [&] {
    EXPECT_FALSE(ch.try_pop().has_value());
    ch.push(9);
    auto v = ch.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 9);
  });
  eng.run();
}

TEST(Channel, MoveOnlyPayloads) {
  Engine eng;
  Channel<std::unique_ptr<int>> ch(&eng);
  int result = 0;
  eng.spawn("producer", [&] { ch.push_at(std::make_unique<int>(5), 10 * kNanosecond); });
  eng.spawn("consumer", [&] {
    auto item = ch.pop();
    ASSERT_TRUE(item.has_value());
    result = **item;
  });
  eng.run();
  EXPECT_EQ(result, 5);
}

TEST(Channel, ManyProducersOneConsumerFifoPerReadyTime) {
  Engine eng;
  Channel<int> ch(&eng);
  std::vector<int> got;
  for (int p = 0; p < 4; ++p) {
    eng.spawn(numbered("p", p), [&ch, p] { ch.push_at(p, 5 * kNanosecond); });
  }
  eng.spawn("consumer", [&] {
    for (int i = 0; i < 4; ++i) got.push_back(*ch.pop());
  });
  eng.run();
  // Same ready time -> delivery follows push order, which follows spawn order.
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace hyp::sim
