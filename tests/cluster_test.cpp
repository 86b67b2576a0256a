#include "cluster/cluster.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hyp::cluster {
namespace {

constexpr ServiceId kEcho = 1;
constexpr ServiceId kOneWay = 2;
constexpr ServiceId kDeferred = 3;

ClusterParams tiny_params() {
  ClusterParams p;
  p.name = "test";
  p.default_nodes = 4;
  p.net.latency = 10 * kMicrosecond;
  p.net.bandwidth_bytes_per_sec = 100e6;  // 10 ns per byte
  p.net.send_overhead = 1 * kMicrosecond;
  p.net.recv_overhead = 2 * kMicrosecond;
  p.cpu.hz = 100e6;
  p.cpu.check_cycles = 10;
  return p;
}

TEST(ClusterParams, PresetsMatchThePaperConstants) {
  auto myri = ClusterParams::myrinet200();
  EXPECT_EQ(myri.default_nodes, 12);
  EXPECT_DOUBLE_EQ(myri.cpu.hz, 200e6);
  EXPECT_EQ(myri.cpu.page_fault_cost, 22 * kMicrosecond);  // paper §4.2

  auto sci = ClusterParams::sci450();
  EXPECT_EQ(sci.default_nodes, 6);
  EXPECT_DOUBLE_EQ(sci.cpu.hz, 450e6);
  EXPECT_EQ(sci.cpu.page_fault_cost, 12 * kMicrosecond);  // paper §4.2

  // The same check is cheaper in wall time on the faster CPU — the paper's
  // cross-cluster argument in §4.3 depends on this.
  EXPECT_GT(myri.cpu.check_cost(), sci.cpu.check_cost());
}

TEST(ClusterParams, ByNameResolvesBothPresets) {
  EXPECT_EQ(ClusterParams::by_name("myri200").name, "myri200");
  EXPECT_EQ(ClusterParams::by_name("sci450").name, "sci450");
}

TEST(ClusterParamsDeath, ByNameRejectsJunk) {
  EXPECT_DEATH(ClusterParams::by_name("infiniband"), "unknown cluster preset");
}

TEST(NetworkParams, WireTimeIsLatencyPlusBytesOverBandwidth) {
  auto p = tiny_params();
  EXPECT_EQ(p.net.wire_time(0), 10 * kMicrosecond);
  // 1000 bytes at 100 MB/s = 10 us.
  EXPECT_EQ(p.net.wire_time(1000), 20 * kMicrosecond);
}

TEST(Cluster, NodeCountDefaultsToPreset) {
  Cluster c(tiny_params());
  EXPECT_EQ(c.node_count(), 4);
  Cluster c2(tiny_params(), 2);
  EXPECT_EQ(c2.node_count(), 2);
}

TEST(Cluster, CallRoundTripsPayloadAndTime) {
  Cluster c(tiny_params(), 2);
  c.node(1).register_service(kEcho, [&](Incoming& in) {
    auto v = in.reader.get<std::uint32_t>();
    Buffer out;
    out.put<std::uint32_t>(v + 1);
    c.reply(in, std::move(out));
  });
  Time elapsed = 0;
  c.spawn_thread(0, "caller", [&] {
    Buffer req;
    req.put<std::uint32_t>(41);
    const Time begin = c.engine().now();
    Buffer resp = c.call(0, 1, kEcho, std::move(req));
    elapsed = c.engine().now() - begin;
    BufferReader r(resp);
    EXPECT_EQ(r.get<std::uint32_t>(), 42u);
  });
  c.run();
  // Request: 1us send + 10us latency + 40ns wire + 2us recv = ~13.04us.
  // Reply: same shape. Total ~26.1us.
  EXPECT_GT(elapsed, 26 * kMicrosecond);
  EXPECT_LT(elapsed, 27 * kMicrosecond);
}

TEST(Cluster, OneWaySendInvokesHandlerAfterDelay) {
  Cluster c(tiny_params(), 2);
  Time handled_at = 0;
  c.node(1).register_service(kOneWay, [&](Incoming& in) {
    EXPECT_EQ(in.from, 0);
    EXPECT_EQ(in.to, 1);
    EXPECT_EQ(in.reply_token, 0u);
    handled_at = c.engine().now();
  });
  c.spawn_thread(0, "sender", [&] {
    Buffer b;
    b.put<std::uint8_t>(1);
    c.send(0, 1, kOneWay, std::move(b));
  });
  c.run();
  // 1us send + 10us latency + ~0 wire + 2us recv.
  EXPECT_GE(handled_at, 13 * kMicrosecond);
  EXPECT_LT(handled_at, 14 * kMicrosecond);
}

TEST(Cluster, ServiceQueueSerializesConcurrentArrivals) {
  // Two messages arriving together at one node are handled 2us (recv
  // overhead) apart, not simultaneously.
  Cluster c(tiny_params(), 3);
  std::vector<Time> handled;
  c.node(2).register_service(kOneWay, [&](Incoming&) { handled.push_back(c.engine().now()); });
  for (NodeId src : {0, 1}) {
    c.spawn_thread(src, numbered("s", src), [&c, src] {
      Buffer b;
      b.put<std::uint8_t>(0);
      c.send(src, 2, kOneWay, std::move(b));
    });
  }
  c.run();
  ASSERT_EQ(handled.size(), 2u);
  EXPECT_EQ(handled[1] - handled[0], 2 * kMicrosecond);
}

TEST(Cluster, DeferredReplyViaExtendService) {
  // A handler can model extra service work (e.g. a page copy) and delay its
  // reply until that work completes.
  Cluster c(tiny_params(), 2);
  c.node(1).register_service(kDeferred, [&](Incoming& in) {
    const Time done_at = c.node(1).extend_service(100 * kMicrosecond);
    Buffer out;
    out.put<std::uint8_t>(1);
    c.reply(in, std::move(out), done_at - c.engine().now());
  });
  Time elapsed = 0;
  c.spawn_thread(0, "caller", [&] {
    Buffer req;
    req.put<std::uint8_t>(0);
    const Time begin = c.engine().now();
    c.call(0, 1, kDeferred, std::move(req));
    elapsed = c.engine().now() - begin;
  });
  c.run();
  EXPECT_GT(elapsed, 126 * kMicrosecond);  // ~26us transport + 100us service
}

TEST(Cluster, MessagesAreCountedOnTheSender) {
  Cluster c(tiny_params(), 2);
  c.node(1).register_service(kOneWay, [](Incoming&) {});
  c.spawn_thread(0, "sender", [&] {
    Buffer b;
    b.put<std::uint64_t>(7);
    c.send(0, 1, kOneWay, std::move(b));
  });
  c.run();
  EXPECT_EQ(c.node(0).stats().get(Counter::kMessages), 1u);
  EXPECT_EQ(c.node(0).stats().get(Counter::kMessageBytes), 8u);
  EXPECT_EQ(c.total_stats().get(Counter::kMessages), 1u);
}

TEST(Cluster, SpawnThreadCountsRemoteSpawns) {
  Cluster c(tiny_params(), 2);
  c.spawn_thread(1, "worker", [] {});
  c.run();
  EXPECT_EQ(c.node(1).stats().get(Counter::kRemoteThreadSpawns), 1u);
}

TEST(Cluster, CpuClockBatchesCharges) {
  Cluster c(tiny_params(), 1);
  Time after = 0;
  CpuClock clock(&c.params().cpu);
  c.spawn_thread(0, "worker", [&] {
    clock.charge_cycles(100);  // 1us at 100 MHz
    clock.charge(4 * kMicrosecond);
    EXPECT_EQ(c.engine().now(), 0u);  // nothing advanced yet
    clock.flush();
    after = c.engine().now();
  });
  c.run();
  EXPECT_EQ(after, 5 * kMicrosecond);
  EXPECT_EQ(clock.total_charged(), 5 * kMicrosecond);
  EXPECT_EQ(clock.pending(), 0u);
}

// In-line checks are only counted until a flush settles them: pending()
// includes them, the bound node's tally moves only at flush() (by exactly
// the count), and time advances by count x check cost. A rebind flushes, so
// the checks counted so far land on the old node, time and tally both.
TEST(Cluster, CpuClockSettlesChecksAtFlush) {
  Cluster c(tiny_params(), 2);
  const Time cost = c.params().cpu.check_cost();  // 10 cycles at 100 MHz
  ASSERT_EQ(cost, 100 * kNanosecond);
  Stats& s0 = c.node(0).stats();
  Stats& s1 = c.node(1).stats();
  CpuClock clock(&c.params().cpu);
  clock.bind(&c.node(0).app_cpu(), &s0);
  Time after = 0;
  c.spawn_thread(0, "worker", [&] {
    for (int i = 0; i < 7; ++i) clock.charge_check();
    EXPECT_EQ(clock.pending(), 7 * cost);
    EXPECT_EQ(s0.get(Counter::kInlineChecks), 0u);
    clock.flush();
    after = c.engine().now();
    EXPECT_EQ(s0.get(Counter::kInlineChecks), 7u);

    for (int i = 0; i < 3; ++i) clock.charge_check();
    clock.bind(&c.node(1).app_cpu(), &s1);
    EXPECT_EQ(s0.get(Counter::kInlineChecks), 10u);
    EXPECT_EQ(clock.pending(), 0u);
    EXPECT_EQ(c.engine().now(), 10 * cost);
    clock.charge_check();
    clock.flush();
  });
  c.run();
  EXPECT_EQ(after, 7 * cost);
  EXPECT_EQ(c.engine().now(), 11 * cost);
  EXPECT_EQ(s0.get(Counter::kInlineChecks), 10u);
  EXPECT_EQ(s1.get(Counter::kInlineChecks), 1u);
  EXPECT_EQ(clock.total_charged(), 11 * cost);
  EXPECT_EQ(clock.pending(), 0u);
}

TEST(ClusterDeath, LoopbackSendAborts) {
  Cluster c(tiny_params(), 2);
  c.spawn_thread(0, "bad", [&] {
    Buffer b;
    c.send(0, 0, kOneWay, std::move(b));
  });
  EXPECT_DEATH(c.run(), "loopback");
}

TEST(ClusterDeath, MissingHandlerAborts) {
  Cluster c(tiny_params(), 2);
  c.spawn_thread(0, "sender", [&] {
    Buffer b;
    c.send(0, 1, 99, std::move(b));
  });
  EXPECT_DEATH(c.run(), "no handler for service");
}

TEST(ClusterDeath, DeadlockAbortsWithFiberName) {
  Cluster c(tiny_params(), 1);
  c.spawn_thread(0, "waiting-on-godot", [&] { c.engine().park(); });
  EXPECT_DEATH(c.run(), "waiting-on-godot");
}

// Both transports share one call table, so the deadlock report names a
// lossless call still waiting for its reply too.
TEST(ClusterDeath, DeadlockReportNamesALosslessPendingCall) {
  Cluster c(tiny_params(), 2);
  c.node(1).register_service(kDeferred, "never_replies", [](Incoming&) {});
  c.spawn_thread(0, "caller", [&] { c.call(0, 1, kDeferred, Buffer()); });
  EXPECT_DEATH(c.run(), "pending rpc: node 0 -> node 1 service never_replies");
}

}  // namespace
}  // namespace hyp::cluster
