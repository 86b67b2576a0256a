// The lossy transport's steady state is allocation-free: once capacities
// warm up, a packet, its ack, its dedup bookkeeping and the pending call it
// answers cost no heap allocation.
//
// The allocation-counting hook (alloc_hook.hpp) replaces the global operator
// new/delete for THIS test binary only. It merely counts; behavior is
// unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "alloc_hook.hpp"
#include "cluster/cluster.hpp"
#include "test_util.hpp"

namespace hyp::cluster {
namespace {

constexpr ServiceId kEcho = 1;

ClusterParams lossy_params() {
  ClusterParams p;
  p.name = "test";
  p.default_nodes = 2;
  p.net.latency = 10 * kMicrosecond;
  p.net.bandwidth_bytes_per_sec = 100e6;
  p.net.send_overhead = 1 * kMicrosecond;
  p.net.recv_overhead = 2 * kMicrosecond;
  p.cpu.hz = 100e6;
  p.fault = FaultProfile::parse("dup5%,reorder5us,seed=11");
  return p;
}

TEST(TransportAlloc, LossyEchoCallsAllocateNothingOnceWarm) {
  Cluster c(lossy_params(), 2);
  ASSERT_TRUE(c.transport_active());
  for (NodeId n : {0, 1}) {
    c.node(n).register_service(kEcho, "echo_test", [&c](Incoming& in) {
      const auto v = in.reader.get<std::uint32_t>();
      Buffer out;
      out.put<std::uint32_t>(v + 1);
      c.reply(in, std::move(out));
    });
  }
  // Four callers on each node keep several packets in flight per pair, so
  // the reorder window delivers some of them early (into the dedup window)
  // and duplicates hit both the watermark and the window.
  constexpr int kCallers = 4;
  constexpr std::uint32_t kWarmCalls = 2000;
  constexpr std::uint32_t kCalls = 2000;
  int warm = 0;
  int finished = 0;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  int wrong = 0;
  for (NodeId from : {0, 1}) {
    for (int k = 0; k < kCallers; ++k) {
      c.spawn_thread(from, numbered("caller", from) + "." + std::to_string(k), [&, from] {
        auto echo = [&](std::uint32_t v) {
          Buffer req;
          req.put<std::uint32_t>(v);
          Buffer resp = c.call(from, 1 - from, kEcho, std::move(req));
          BufferReader r(resp);
          if (r.get<std::uint32_t>() != v + 1) ++wrong;
        };
        for (std::uint32_t i = 0; i < kWarmCalls; ++i) echo(i);
        // The measured window runs from the last caller's end of warm-up to
        // the first caller's end of its measured calls: all callers are busy
        // throughout, and no fiber has exited yet.
        if (++warm == 2 * kCallers) before = allocs();
        for (std::uint32_t i = 0; i < kCalls; ++i) echo(i);
        if (finished++ == 0) after = allocs();
      });
    }
  }
  c.run();
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(after - before, 0u);
  const Stats s = c.total_stats();
  EXPECT_GT(s.get(Counter::kNetDupes), 0u);
  EXPECT_GT(s.get(Counter::kDupSuppressed), 0u);
}

}  // namespace
}  // namespace hyp::cluster
