#include "sim/sync.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hyp::sim {
namespace {

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
