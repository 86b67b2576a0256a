// Edge cases and failure injection for the DSM layer: page-size variants,
// field widths, region boundaries, malformed messages, misdirected updates.
#include <gtest/gtest.h>

#include "dsm/access.hpp"
#include "dsm/dsm.hpp"
#include "test_util.hpp"

namespace hyp::dsm {
namespace {

cluster::ClusterParams params_with_page(std::size_t page_bytes) {
  auto p = cluster::ClusterParams::myrinet200();
  p.default_nodes = 2;
  p.page_bytes = page_bytes;
  return p;
}

class PageSizeSweep : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(Pages, PageSizeSweep,
                         ::testing::Values(std::size_t{512}, std::size_t{1024},
                                           std::size_t{4096}, std::size_t{16384}),
                         [](const auto& param_info) { return numbered("page", param_info.param); });

TEST_P(PageSizeSweep, RemoteRoundTripWorksAtEveryPageSize) {
  cluster::Cluster c(params_with_page(GetParam()), 2);
  DsmSystem dsm(&c, std::size_t{4} << 20, ProtocolKind::kJavaPf);
  EXPECT_EQ(dsm.layout().page_bytes(), GetParam());
  c.spawn_thread(1, "t", [&] {
    auto t = dsm.make_thread(1);
    const Gva a = dsm.alloc(0, 8);
    dsm.poke_home<std::int64_t>(a, 1234);
    EXPECT_EQ((PfPolicy::get<std::int64_t>(*t, a)), 1234);
    PfPolicy::put<std::int64_t>(*t, a, 4321);
    dsm.update_main_memory(*t);
    EXPECT_EQ(dsm.read_home<std::int64_t>(a), 4321);
    EXPECT_EQ(t->stats->get(Counter::kPageFetchBytes), GetParam());
  });
  c.run();
}

class FieldWidthSweep : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Widths, FieldWidthSweep, ::testing::Values(1, 2, 4, 8),
                         [](const auto& param_info) { return numbered("w", param_info.param); });

template <typename T>
void width_round_trip(DsmSystem& dsm, ThreadCtx& t, T value) {
  const Gva a = dsm.alloc(0, sizeof(T), sizeof(T));
  IcPolicy::put<T>(t, a, value);
  EXPECT_EQ((IcPolicy::get<T>(t, a)), value);
  dsm.update_main_memory(t);
  EXPECT_EQ(dsm.read_home<T>(a), value);
}

TEST_P(FieldWidthSweep, WriteLogHandlesEveryJavaFieldWidth) {
  cluster::Cluster c(params_with_page(4096), 2);
  DsmSystem dsm(&c, std::size_t{4} << 20, ProtocolKind::kJavaIc);
  c.spawn_thread(1, "t", [&] {
    auto t = dsm.make_thread(1);
    switch (GetParam()) {
      case 1: width_round_trip<std::int8_t>(dsm, *t, -7); break;
      case 2: width_round_trip<std::int16_t>(dsm, *t, -30000); break;
      case 4: width_round_trip<std::int32_t>(dsm, *t, -2000000000); break;
      case 8: width_round_trip<std::int64_t>(dsm, *t, -4'000'000'000LL); break;
      default: FAIL();
    }
  });
  c.run();
}

TEST(DsmEdge, LastPageOfTheRegionIsUsable) {
  cluster::Cluster c(params_with_page(4096), 2);
  DsmSystem dsm(&c, std::size_t{1} << 20, ProtocolKind::kJavaPf);
  // Node 1 owns the top half; its last allocation touches the final page.
  const Gva total = dsm.layout().total_bytes();
  c.spawn_thread(0, "t", [&] {
    auto t = dsm.make_thread(0);
    // Fill node 1's zone up to its last 8 bytes.
    const Gva last = dsm.alloc(1, dsm.layout().zone_end(1) - dsm.layout().zone_begin(1) - 8);
    const Gva tail = dsm.alloc(1, 8);
    EXPECT_EQ(tail + 8, total);
    dsm.poke_home<std::int64_t>(tail, 99);
    EXPECT_EQ((PfPolicy::get<std::int64_t>(*t, tail)), 99);
    (void)last;
  });
  c.run();
}

TEST(DsmEdge, FloatAndDoubleFieldsRoundTrip) {
  cluster::Cluster c(params_with_page(4096), 2);
  DsmSystem dsm(&c, std::size_t{4} << 20, ProtocolKind::kJavaIc);
  c.spawn_thread(1, "t", [&] {
    auto t = dsm.make_thread(1);
    const Gva f = dsm.alloc(0, 4, 4);
    const Gva d = dsm.alloc(0, 8, 8);
    IcPolicy::put<float>(*t, f, 2.5f);
    IcPolicy::put<double>(*t, d, -1e100);
    dsm.update_main_memory(*t);
    EXPECT_EQ(dsm.read_home<float>(f), 2.5f);
    EXPECT_EQ(dsm.read_home<double>(d), -1e100);
  });
  c.run();
}

TEST(DsmEdge, InterleavedPutsToTwoHomesFlushToBoth) {
  cluster::Cluster c(params_with_page(4096), 3);
  DsmSystem dsm(&c, std::size_t{4} << 20, ProtocolKind::kJavaIc);
  c.spawn_thread(0, "t", [&] {
    auto t = dsm.make_thread(0);
    const Gva on1 = dsm.alloc(1, 8);
    const Gva on2 = dsm.alloc(2, 8);
    for (int i = 0; i < 10; ++i) {
      IcPolicy::put<std::int64_t>(*t, on1, i);
      IcPolicy::put<std::int64_t>(*t, on2, -i);
    }
    dsm.update_main_memory(*t);
    EXPECT_EQ(dsm.read_home<std::int64_t>(on1), 9);
    EXPECT_EQ(dsm.read_home<std::int64_t>(on2), -9);
    // One (deduplicated) update message per home.
    EXPECT_EQ(t->stats->get(Counter::kUpdatesSent), 2u);
  });
  c.run();
}

TEST(DsmEdgeDeath, MisdirectedFieldUpdateAborts) {
  // An update record whose address is not homed at the receiving node must
  // be rejected, not silently applied.
  cluster::Cluster c(params_with_page(4096), 3);
  DsmSystem dsm(&c, std::size_t{4} << 20, ProtocolKind::kJavaIc);
  c.spawn_thread(0, "attacker", [&] {
    const Gva on2 = dsm.alloc(2, 8);  // homed on node 2
    Buffer msg;
    std::vector<WriteLogEntry> entries = {{on2, 8, 1}};
    WriteLog::encode(&msg, entries);
    c.call(0, 1, svc::kUpdateFields, std::move(msg));  // ...sent to node 1
  });
  EXPECT_DEATH(c.run(), "non-home");
}

TEST(DsmEdgeDeath, MisdirectedPageRequestAborts) {
  cluster::Cluster c(params_with_page(4096), 3);
  DsmSystem dsm(&c, std::size_t{4} << 20, ProtocolKind::kJavaPf);
  c.spawn_thread(0, "attacker", [&] {
    Buffer msg;
    // Page 0 is homed on node 0; ask node 1 for it.
    msg.put<std::uint32_t>(0);
    c.call(0, 1, svc::kPageRequest, std::move(msg));
  });
  EXPECT_DEATH(c.run(), "non-home");
}

TEST(DsmEdgeDeath, TruncatedUpdateMessageAborts) {
  cluster::Cluster c(params_with_page(4096), 2);
  DsmSystem dsm(&c, std::size_t{4} << 20, ProtocolKind::kJavaIc);
  c.spawn_thread(0, "attacker", [&] {
    Buffer msg;
    msg.put<std::uint32_t>(5);  // claims 5 entries, carries none
    c.call(0, 1, svc::kUpdateFields, std::move(msg));
  });
  EXPECT_DEATH(c.run(), "underrun");
}

TEST(DsmEdge, ManyThreadsOneNodeShareTheCache) {
  // §3.1: "at most one copy of an object may exist on a node and this copy
  // is shared by all the threads running on that node".
  cluster::Cluster c(params_with_page(4096), 2);
  DsmSystem dsm(&c, std::size_t{4} << 20, ProtocolKind::kJavaPf);
  const Gva a = dsm.alloc(0, 8);
  dsm.poke_home<std::int64_t>(a, 5);
  for (int i = 0; i < 8; ++i) {
    c.spawn_thread(1, numbered("t", i), [&] {
      auto t = dsm.make_thread(1);
      EXPECT_EQ((PfPolicy::get<std::int64_t>(*t, a)), 5);
    });
  }
  c.run();
  EXPECT_EQ(c.node(1).stats().get(Counter::kPageFetches), 1u);  // one copy per node
}

TEST(DsmEdge, InvalidateOnEmptyCacheIsCheapAndSafe) {
  cluster::Cluster c(params_with_page(4096), 2);
  DsmSystem dsm(&c, std::size_t{4} << 20, ProtocolKind::kJavaPf);
  c.spawn_thread(0, "t", [&] {
    auto t = dsm.make_thread(0);
    dsm.invalidate_cache(*t);
    dsm.update_main_memory(*t);  // nothing to flush
    EXPECT_EQ(t->stats->get(Counter::kInvalidations), 0u);
    EXPECT_EQ(t->stats->get(Counter::kUpdatesSent), 0u);
  });
  c.run();
}

TEST(DsmEdge, ZoneExhaustionDiagnosesTheRegionSize) {
  cluster::Cluster c(params_with_page(4096), 2);
  DsmSystem dsm(&c, std::size_t{1} << 20, ProtocolKind::kJavaIc);
  EXPECT_DEATH(dsm.alloc(0, std::size_t{2} << 20), "zone exhausted");
}

}  // namespace
}  // namespace hyp::dsm
