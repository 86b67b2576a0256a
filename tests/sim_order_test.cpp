// FifoServer service order when requests arrive out of issue order: the
// server must serialize in *arrival* order, never in issue order, with exact
// busy-time accounting. Each request is one fiber that sleeps until its
// arrival time and then calls serve().
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/sync.hpp"

namespace hyp::sim {
namespace {

TEST(FifoServerOrder, OutOfOrderPushAtServesInArrivalOrder) {
  // Requests are *issued* in the order 30ns, 10ns, 20ns but arrive out of
  // issue order. The server must serve them in arrival order and
  // back-to-back once it saturates.
  Engine eng;
  FifoServer server(&eng);
  constexpr TimeDelta kService = 25 * kNanosecond;
  std::vector<std::pair<int, Time>> starts;  // (request id, service start)
  struct Request {
    int id;
    Time arrival;
  };
  for (const Request r : {Request{3, 30 * kNanosecond}, Request{1, 10 * kNanosecond},
                          Request{2, 20 * kNanosecond}}) {
    eng.spawn("request", [&, r] {
      eng.sleep_until(r.arrival);
      starts.push_back({r.id, server.serve(kService)});
    });
  }
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
  FifoServer server(&eng);
  std::vector<Time> starts;
  // The second arrives long after the first completes.
  for (const Time arrival : {10 * kNanosecond, 500 * kNanosecond}) {
    eng.spawn("request", [&, arrival] {
      eng.sleep_until(arrival);
      starts.push_back(server.serve(20 * kNanosecond));
    });
  }
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
