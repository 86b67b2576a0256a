// Behavioral tests of the DSM system under both protocols. Most tests are
// parameterized over {java_ic, java_pf}: the protocols must agree on
// *values* (both implement Java consistency) while differing in *events*
// (checks vs faults) — exactly the paper's framing.
#include "dsm/access.hpp"
#include "dsm/dsm.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <memory>
#include <string>

namespace hyp::dsm {
namespace {

cluster::ClusterParams test_params() {
  auto p = cluster::ClusterParams::myrinet200();
  p.default_nodes = 4;
  return p;
}

constexpr std::size_t kRegion = 1 << 20;  // 1 MiB, 64 pages per node zone

// Runs `body(dsm, t0, t1)` with thread contexts on nodes 0 and 1.
template <typename Body>
void run_two_nodes(ProtocolKind kind, Body body) {
  cluster::Cluster c(test_params(), 4);
  DsmSystem dsm(&c, kRegion, kind);
  c.spawn_thread(0, "driver", [&] {
    auto t0 = dsm.make_thread(0);
    auto t1 = dsm.make_thread(1);
    body(dsm, *t0, *t1);
  });
  c.run();
}

class DsmProtocolTest : public ::testing::TestWithParam<ProtocolKind> {};

INSTANTIATE_TEST_SUITE_P(BothProtocols, DsmProtocolTest,
                         ::testing::Values(ProtocolKind::kJavaIc, ProtocolKind::kJavaPf),
                         [](const auto& info) { return protocol_name(info.param); });

template <typename T>
T do_get(ProtocolKind kind, ThreadCtx& t, Gva a) {
  return with_policy(kind, [&](auto policy) {
    using P = decltype(policy);
    return P::template get<T>(t, a);
  });
}

template <typename T>
void do_put(ProtocolKind kind, ThreadCtx& t, Gva a, T v) {
  with_policy(kind, [&](auto policy) {
    using P = decltype(policy);
    P::template put<T>(t, a, v);
  });
}

TEST_P(DsmProtocolTest, HomeAccessRoundTripsWithoutCommunication) {
  run_two_nodes(GetParam(), [&](DsmSystem& dsm, ThreadCtx& t0, ThreadCtx&) {
    const Gva a = dsm.alloc(0, 8);
    do_put<std::int64_t>(GetParam(), t0, a, -12345);
    EXPECT_EQ((do_get<std::int64_t>(GetParam(), t0, a)), -12345);
    EXPECT_EQ(dsm.read_home<std::int64_t>(a), -12345);  // home copy IS main memory
    EXPECT_EQ(t0.stats->get(Counter::kPageFetches), 0u);
    EXPECT_EQ(t0.stats->get(Counter::kMessages), 0u);
  });
}

TEST_P(DsmProtocolTest, RemoteReadFetchesThePage) {
  run_two_nodes(GetParam(), [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 4);  // home = node 0
    dsm.poke_home<std::int32_t>(a, 777);
    EXPECT_EQ((do_get<std::int32_t>(GetParam(), t1, a)), 777);
    EXPECT_EQ(t1.stats->get(Counter::kPageFetches), 1u);
    EXPECT_EQ(t1.stats->get(Counter::kPageFetchBytes), dsm.layout().page_bytes());
  });
}

TEST_P(DsmProtocolTest, SecondReadHitsTheCache) {
  run_two_nodes(GetParam(), [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 4);
    dsm.poke_home<std::int32_t>(a, 1);
    do_get<std::int32_t>(GetParam(), t1, a);
    const auto fetches = t1.stats->get(Counter::kPageFetches);
    do_get<std::int32_t>(GetParam(), t1, a);
    EXPECT_EQ(t1.stats->get(Counter::kPageFetches), fetches);
  });
}

TEST_P(DsmProtocolTest, PagePrefetchEffectForSamePageObjects) {
  // §3.1: loadIntoCache retrieves the whole page, prefetching neighbours.
  run_two_nodes(GetParam(), [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 8);
    const Gva b = dsm.alloc(0, 8);  // same page as a
    ASSERT_EQ(dsm.layout().page_of(a), dsm.layout().page_of(b));
    dsm.poke_home<std::int64_t>(a, 10);
    dsm.poke_home<std::int64_t>(b, 20);
    EXPECT_EQ((do_get<std::int64_t>(GetParam(), t1, a)), 10);
    EXPECT_EQ((do_get<std::int64_t>(GetParam(), t1, b)), 20);
    EXPECT_EQ(t1.stats->get(Counter::kPageFetches), 1u);  // one page, two objects
  });
}

TEST_P(DsmProtocolTest, RemoteWriteReachesHomeOnlyAfterUpdateMainMemory) {
  run_two_nodes(GetParam(), [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 8);
    dsm.poke_home<std::int64_t>(a, 0);
    do_put<std::int64_t>(GetParam(), t1, a, 42);
    // Modification is local until the flush (JMM working memory).
    EXPECT_EQ(dsm.read_home<std::int64_t>(a), 0);
    dsm.update_main_memory(t1);
    EXPECT_EQ(dsm.read_home<std::int64_t>(a), 42);
    EXPECT_GE(t1.stats->get(Counter::kUpdatesSent), 1u);
  });
}

TEST_P(DsmProtocolTest, CachedCopyStaysStaleUntilInvalidation) {
  // Deterministic stale read: a cached page does not see home-side changes
  // until invalidateCache — the paper's rationale for invalidating at every
  // monitor entry.
  run_two_nodes(GetParam(), [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 4);
    dsm.poke_home<std::int32_t>(a, 1);
    EXPECT_EQ((do_get<std::int32_t>(GetParam(), t1, a)), 1);
    dsm.poke_home<std::int32_t>(a, 2);  // home changes behind t1's back
    EXPECT_EQ((do_get<std::int32_t>(GetParam(), t1, a)), 1);  // stale
    dsm.invalidate_cache(t1);
    EXPECT_EQ((do_get<std::int32_t>(GetParam(), t1, a)), 2);  // refetched
    EXPECT_EQ(t1.stats->get(Counter::kPageFetches), 2u);
    EXPECT_GE(t1.stats->get(Counter::kInvalidations), 1u);
  });
}

TEST_P(DsmProtocolTest, AcquireFlushesThenInvalidates) {
  run_two_nodes(GetParam(), [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 8);
    do_put<std::int64_t>(GetParam(), t1, a, 9);
    dsm.on_acquire(t1);
    EXPECT_EQ(dsm.read_home<std::int64_t>(a), 9);        // flushed
    EXPECT_FALSE(t1.nd->present(dsm.layout().page_of(a)));  // invalidated
  });
}

TEST_P(DsmProtocolTest, ReleaseFlushesButKeepsCache) {
  run_two_nodes(GetParam(), [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 8);
    do_put<std::int64_t>(GetParam(), t1, a, 9);
    dsm.on_release(t1);
    EXPECT_EQ(dsm.read_home<std::int64_t>(a), 9);
    EXPECT_TRUE(t1.nd->present(dsm.layout().page_of(a)));  // still cached
  });
}

TEST_P(DsmProtocolTest, DisjointFieldWritersDoNotClobberEachOther) {
  // False-sharing safety: two nodes modify different fields of the same
  // page; both flushes must land (field-granularity updates / word diffs).
  run_two_nodes(GetParam(), [&](DsmSystem& dsm, ThreadCtx& t0, ThreadCtx& t1) {
    // Page homed on node 2 so both writers are remote.
    const Gva a = dsm.alloc(2, 8);
    const Gva b = dsm.alloc(2, 8);
    ASSERT_EQ(dsm.layout().page_of(a), dsm.layout().page_of(b));
    do_put<std::int64_t>(GetParam(), t0, a, 111);
    do_put<std::int64_t>(GetParam(), t1, b, 222);
    dsm.update_main_memory(t0);
    dsm.update_main_memory(t1);
    EXPECT_EQ(dsm.read_home<std::int64_t>(a), 111);
    EXPECT_EQ(dsm.read_home<std::int64_t>(b), 222);
  });
}

TEST_P(DsmProtocolTest, ReleaseAcquirePairTransfersData) {
  // The canonical JMM handoff: writer flushes (release); reader invalidates
  // (acquire) and sees the new value.
  run_two_nodes(GetParam(), [&](DsmSystem& dsm, ThreadCtx& t0, ThreadCtx& t1) {
    const Gva a = dsm.alloc(2, 8);
    do_put<std::int64_t>(GetParam(), t0, a, 31337);
    dsm.on_release(t0);
    dsm.on_acquire(t1);
    EXPECT_EQ((do_get<std::int64_t>(GetParam(), t1, a)), 31337);
  });
}

TEST_P(DsmProtocolTest, MultiPageArraySpansFetches) {
  run_two_nodes(GetParam(), [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const std::size_t page = dsm.layout().page_bytes();
    const Gva arr = dsm.alloc(0, 3 * page, page);
    for (std::size_t i = 0; i < 3; ++i) {
      dsm.poke_home<std::int32_t>(arr + i * page, static_cast<std::int32_t>(i));
    }
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ((do_get<std::int32_t>(GetParam(), t1, arr + i * page)),
                static_cast<std::int32_t>(i));
    }
    EXPECT_EQ(t1.stats->get(Counter::kPageFetches), 3u);
  });
}

TEST_P(DsmProtocolTest, LoadIntoCachePrefetches) {
  run_two_nodes(GetParam(), [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 4);
    dsm.poke_home<std::int32_t>(a, 5);
    dsm.load_into_cache(t1, a);
    const auto faults_before = t1.stats->get(Counter::kPageFaults);
    EXPECT_EQ((do_get<std::int32_t>(GetParam(), t1, a)), 5);
    // The explicit load means the access itself neither faults nor fetches.
    EXPECT_EQ(t1.stats->get(Counter::kPageFaults), faults_before);
    EXPECT_EQ(t1.stats->get(Counter::kPageFetches), 1u);
  });
}

// --- protocol-specific event accounting ------------------------------------

TEST(DsmJavaIc, ChecksOnEveryAccessAndNeverFaults) {
  run_two_nodes(ProtocolKind::kJavaIc, [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(1, 8);  // home access
    const Gva b = dsm.alloc(0, 8);  // remote access
    do_put<std::int64_t>(ProtocolKind::kJavaIc, t1, a, 1);
    do_get<std::int64_t>(ProtocolKind::kJavaIc, t1, a);
    do_get<std::int64_t>(ProtocolKind::kJavaIc, t1, b);
    EXPECT_EQ(t1.stats->get(Counter::kInlineChecks), 3u);  // local AND remote
    EXPECT_EQ(t1.stats->get(Counter::kPageFaults), 0u);
    EXPECT_EQ(t1.stats->get(Counter::kMprotectCalls), 0u);  // §3.2
  });
}

TEST(DsmJavaIc, HomeWritesAreNotLogged) {
  run_two_nodes(ProtocolKind::kJavaIc, [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva home_field = dsm.alloc(1, 8);
    const Gva remote_field = dsm.alloc(0, 8);
    do_put<std::int64_t>(ProtocolKind::kJavaIc, t1, home_field, 1);
    do_put<std::int64_t>(ProtocolKind::kJavaIc, t1, remote_field, 2);
    EXPECT_EQ(t1.stats->get(Counter::kWriteLogEntries), 1u);
    EXPECT_EQ(t1.wlog.size(), 1u);
  });
}

TEST(DsmJavaIc, WriteLogDedupesLastWriterWins) {
  run_two_nodes(ProtocolKind::kJavaIc, [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 8);
    for (std::int64_t v = 0; v < 10; ++v) {
      do_put<std::int64_t>(ProtocolKind::kJavaIc, t1, a, v);
    }
    dsm.update_main_memory(t1);
    EXPECT_EQ(dsm.read_home<std::int64_t>(a), 9);
    // One update message carrying one (deduplicated) field.
    EXPECT_EQ(t1.stats->get(Counter::kUpdatesSent), 1u);
  });
}

TEST(DsmJavaPf, FaultsOnlyOnMissesAndNeverChecks) {
  run_two_nodes(ProtocolKind::kJavaPf, [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(1, 8);  // home: free access
    const Gva b = dsm.alloc(0, 8);  // remote: one fault
    do_put<std::int64_t>(ProtocolKind::kJavaPf, t1, a, 1);
    do_get<std::int64_t>(ProtocolKind::kJavaPf, t1, a);
    do_get<std::int64_t>(ProtocolKind::kJavaPf, t1, b);
    do_get<std::int64_t>(ProtocolKind::kJavaPf, t1, b);  // cached: no 2nd fault
    EXPECT_EQ(t1.stats->get(Counter::kInlineChecks), 0u);
    EXPECT_EQ(t1.stats->get(Counter::kPageFaults), 1u);
    EXPECT_EQ(t1.stats->get(Counter::kMprotectCalls), 1u);  // page unprotect
  });
}

TEST(DsmJavaPf, InvalidationCostsOneRegionMprotect) {
  run_two_nodes(ProtocolKind::kJavaPf, [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 8);
    do_get<std::int64_t>(ProtocolKind::kJavaPf, t1, a);
    const auto mprotects = t1.stats->get(Counter::kMprotectCalls);
    dsm.invalidate_cache(t1);
    EXPECT_EQ(t1.stats->get(Counter::kMprotectCalls), mprotects + 1);  // §3.3
  });
}

TEST(DsmJavaPf, DiffWordsCountModifiedWordsOnly) {
  run_two_nodes(ProtocolKind::kJavaPf, [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 64);
    do_put<std::int64_t>(ProtocolKind::kJavaPf, t1, a, 1);
    do_put<std::int64_t>(ProtocolKind::kJavaPf, t1, a + 8, 2);
    do_put<std::int64_t>(ProtocolKind::kJavaPf, t1, a + 32, 3);
    dsm.update_main_memory(t1);
    EXPECT_EQ(t1.stats->get(Counter::kDiffWords), 3u);
    EXPECT_EQ(dsm.read_home<std::int64_t>(a + 32), 3);
  });
}

TEST(DsmJavaPf, CleanPagesSendNoUpdates) {
  run_two_nodes(ProtocolKind::kJavaPf, [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 8);
    do_get<std::int64_t>(ProtocolKind::kJavaPf, t1, a);  // read-only caching
    dsm.update_main_memory(t1);
    EXPECT_EQ(t1.stats->get(Counter::kUpdatesSent), 0u);
  });
}

TEST(DsmJavaPf, RepeatedFlushSendsEachModificationOnce) {
  run_two_nodes(ProtocolKind::kJavaPf, [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 8);
    do_put<std::int64_t>(ProtocolKind::kJavaPf, t1, a, 7);
    dsm.update_main_memory(t1);
    EXPECT_EQ(t1.stats->get(Counter::kUpdatesSent), 1u);
    dsm.update_main_memory(t1);  // twin refreshed: nothing new to send
    EXPECT_EQ(t1.stats->get(Counter::kUpdatesSent), 1u);
  });
}

// --- virtual-time accounting -------------------------------------------------

TEST(DsmTiming, IcChargesCheckCostPerAccessPfChargesNothingWhenLocal) {
  for (ProtocolKind kind : {ProtocolKind::kJavaIc, ProtocolKind::kJavaPf}) {
    run_two_nodes(kind, [&](DsmSystem& dsm, ThreadCtx& t0, ThreadCtx&) {
      const Gva a = dsm.alloc(0, 8);  // home access for t0
      for (int i = 0; i < 100; ++i) do_get<std::int64_t>(kind, t0, a);
      const Time expected =
          kind == ProtocolKind::kJavaIc ? 100 * t0.check_cost : 0;
      EXPECT_EQ(t0.clock.pending(), expected) << protocol_name(kind);
    });
  }
}

TEST(DsmTiming, PfMissCostsAtLeastTheFaultConstant) {
  run_two_nodes(ProtocolKind::kJavaPf, [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(0, 8);
    auto& eng = dsm.cluster().engine();
    const Time before = eng.now();
    do_get<std::int64_t>(ProtocolKind::kJavaPf, t1, a);
    const Time elapsed = eng.now() - before;
    EXPECT_GE(elapsed, dsm.cluster().params().cpu.page_fault_cost);
  });
}

TEST(DsmTiming, IcMissCostsLessThanPfMissButChecksAccumulate) {
  // One miss: ic avoids fault+mprotect, so the miss itself is cheaper. Many
  // local accesses: ic pays per access, pf pays zero. This crossover IS the
  // paper's trade-off (§3.3).
  auto miss_cost = [&](ProtocolKind kind) {
    Time elapsed = 0;
    run_two_nodes(kind, [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
      const Gva a = dsm.alloc(0, 8);
      auto& eng = dsm.cluster().engine();
      const Time before = eng.now();
      do_get<std::int64_t>(kind, t1, a);
      t1.clock.flush();
      elapsed = eng.now() - before;
    });
    return elapsed;
  };
  EXPECT_LT(miss_cost(ProtocolKind::kJavaIc), miss_cost(ProtocolKind::kJavaPf));
}

TEST(DsmSystem, ConcurrentSamePageMissesFetchOnce) {
  cluster::Cluster c(test_params(), 2);
  DsmSystem dsm(&c, kRegion, ProtocolKind::kJavaPf);
  const Gva a = dsm.alloc(0, 8);
  dsm.poke_home<std::int64_t>(a, 5);
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    c.spawn_thread(1, "reader" + std::to_string(i), [&dsm, &done, a] {
      auto t = dsm.make_thread(1);
      EXPECT_EQ((PfPolicy::get<std::int64_t>(*t, a)), 5);
      ++done;
    });
  }
  c.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(c.node(1).stats().get(Counter::kPageFetches), 1u);
}

// Resident set size of this process, from /proc/self/statm.
std::size_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

std::size_t rss_growth_since(std::size_t before) {
  const std::size_t now = rss_bytes();
  return now > before ? now - before : 0;
}

// Per-page DSM state is lazily committed: a node pays for the pages it
// touches, never region size x nodes. Eager tables cost 41 B per page per
// node under hybrid (presence, twin pointer, four heat counters): 688 MB for
// this shape.
TEST(DsmFootprint, HybridSystemAt256NodesCostsTouchedStateOnly) {
  constexpr int kNodes = 256;
  constexpr std::size_t kPages = 65536;
  cluster::Cluster c(test_params(), kNodes);
  const std::size_t page_bytes = c.params().page_bytes;
  const std::size_t before = rss_bytes();
  {
    DsmSystem dsm(&c, kPages * page_bytes, ProtocolKind::kHybrid);
    EXPECT_LT(rss_growth_since(before), std::size_t{64} << 20);
    const Layout& layout = dsm.layout();
    for (NodeId n : {0, 1, kNodes - 1}) {
      NodeDsm& nd = dsm.node_dsm(n);
      const std::uint64_t* window = dsm.access_window(n);
      for (PageId p = 0; p < layout.total_pages(); ++p) {
        const bool home = layout.home_of_page(p) == n;
        ASSERT_EQ(int{nd.presence_data()[p]},
                  home ? NodeDsm::kPresentBit | NodeDsm::kHomeBit : NodeDsm::kIcModeBit);
        ASSERT_FALSE(nd.has_twin(p));
        ASSERT_EQ(window[p], 0u);
      }
      EXPECT_EQ(nd.live_twins(), 0u);
    }
  }
  EXPECT_LT(rss_growth_since(before), std::size_t{64} << 20);
}

// Twins are freed with their cached pages when the system goes away: the
// NodeDsm destructor walks the cached list and checks that no twin is left.
TEST(DsmFootprint, TwinsOfCachedPagesAreFreedAtTeardown) {
  cluster::Cluster c(test_params(), 2);
  auto dsm = std::make_unique<DsmSystem>(&c, kRegion, ProtocolKind::kJavaPf);
  const Gva a = dsm->alloc(0, 3 * 4096);
  c.spawn_thread(1, "reader", [&] {
    auto t = dsm->make_thread(1);
    for (Gva off = 0; off < 3 * 4096; off += 4096) {
      EXPECT_EQ((PfPolicy::get<std::int64_t>(*t, a + off)), 0);
    }
  });
  c.run();
  EXPECT_EQ(dsm->node_dsm(1).live_twins(), 3u);
  EXPECT_EQ(dsm->node_dsm(1).cached_pages().size(), 3u);
  dsm.reset();  // aborts if a twin outlived its cached page
}

TEST(DsmSystemDeath, UnknownProtocolNameAborts) {
  EXPECT_DEATH(protocol_by_name("tso"), "unknown protocol");
}

TEST(DsmSystem, ProtocolNamesRoundTrip) {
  EXPECT_STREQ(protocol_name(ProtocolKind::kJavaIc), "java_ic");
  EXPECT_STREQ(protocol_name(ProtocolKind::kJavaPf), "java_pf");
  EXPECT_EQ(protocol_by_name("java_ic"), ProtocolKind::kJavaIc);
  EXPECT_EQ(protocol_by_name("java_pf"), ProtocolKind::kJavaPf);
}

}  // namespace
}  // namespace hyp::dsm
