// Behavioral tests of the DSM system under both protocols. Most tests are
// parameterized over {java_ic, java_pf}: the protocols must agree on
// *values* (both implement Java consistency) while differing in *events*
// (checks vs faults) — exactly the paper's framing. The same cases also run
// under hybrid, which must agree on the values too.
#include "dsm/access.hpp"
#include "dsm/dsm.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

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
                         [](const auto& param_info) { return protocol_name(param_info.param); });
INSTANTIATE_TEST_SUITE_P(Hybrid, DsmProtocolTest, ::testing::Values(ProtocolKind::kHybrid),
                         [](const auto& param_info) { return protocol_name(param_info.param); });

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

// A replica install copies only the page's bytes below its zone's allocation
// mark, read when the reply arrives. Node 0 allocates and writes b while node
// 1's fetch of the page is in flight, and `late` once the page is cached: a
// mark read when the request left would drop b from the replica, and a mark
// kept from the first install would drop `late` from the refetch.
TEST_P(DsmProtocolTest, ReplicaInstallCopiesEveryAllocatedByte) {
  const ProtocolKind kind = GetParam();
  cluster::Cluster c(test_params(), 4);
  DsmSystem dsm(&c, kRegion, kind);
  const Layout& layout = dsm.layout();
  const Gva a = dsm.alloc(0, 8);
  dsm.poke_home<std::int64_t>(a, 1);
  const PageId page = layout.page_of(a);
  Gva b = 0;
  Gva late = 0;
  bool cached = false;
  bool released = false;
  // Polls `ready` for up to 1 ms of virtual time; a missed step fails, never hangs.
  const auto wait_for = [](const auto& ready) {
    for (int i = 0; i < 1000 && !ready(); ++i) sim::sleep_for(kMicrosecond);
    return ready();
  };
  c.spawn_thread(0, "writer", [&] {
    auto t = dsm.make_thread(0);
    ASSERT_TRUE(wait_for([&] { return dsm.node_dsm(1).fetch_inflight(page); }));
    b = dsm.alloc(0, 8);
    do_put<std::int64_t>(kind, *t, b, 2);
    ASSERT_TRUE(wait_for([&] { return cached; }));
    late = dsm.alloc(0, 8);
    ASSERT_EQ(layout.page_of(late), page);
    do_put<std::int64_t>(kind, *t, late, 3);
    dsm.on_release(*t);
    released = true;
  });
  c.spawn_thread(1, "reader", [&] {
    auto t = dsm.make_thread(1);
    EXPECT_EQ((do_get<std::int64_t>(kind, *t, a)), 1);
    // The replica is the page as the home served it, b included.
    EXPECT_EQ(0, std::memcmp(dsm.node_dsm(1).page_ptr(page), dsm.node_dsm(0).page_ptr(page),
                             layout.page_bytes()));
    cached = true;
    ASSERT_TRUE(wait_for([&] { return released; }));
    dsm.on_acquire(*t);
    EXPECT_EQ((do_get<std::int64_t>(kind, *t, b)), 2);
    EXPECT_EQ((do_get<std::int64_t>(kind, *t, late)), 3);
  });
  c.run();
  // Nothing lands past a zone's mark, in any arena.
  for (NodeId n = 0; n < 4; ++n) {
    const std::byte* arena = dsm.node_dsm(n).arena();
    for (NodeId z = 0; z < 4; ++z) {
      const std::byte* end = arena + layout.zone_end(z);
      EXPECT_EQ(std::find_if(arena + dsm.alloc_mark(z), end,
                             [](std::byte v) { return v != std::byte{0}; }),
                end)
          << "arena " << n << ", zone " << z;
    }
  }
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

// A check is one count on the thread's clock: home-only accesses never
// flush, so the node's tally reads 0 until updateMainMemory settles exactly
// the count.
TEST(DsmJavaIc, ChecksSettleIntoTheTallyAtFlush) {
  constexpr ProtocolKind kIc = ProtocolKind::kJavaIc;
  run_two_nodes(kIc, [&](DsmSystem& dsm, ThreadCtx&, ThreadCtx& t1) {
    const Gva a = dsm.alloc(1, 64);  // home: no miss, so no flush
    for (int i = 0; i < 8; ++i) do_put<std::int64_t>(kIc, t1, a + 8 * i, i);
    for (int i = 0; i < 8; ++i) do_get<std::int64_t>(kIc, t1, a + 8 * i);
    EXPECT_EQ(t1.stats->get(Counter::kInlineChecks), 0u);
    EXPECT_EQ(t1.clock.pending(), 16 * t1.clock.cpu().check_cost());
    dsm.update_main_memory(t1);
    EXPECT_EQ(t1.stats->get(Counter::kInlineChecks), 16u);
    EXPECT_EQ(t1.clock.pending(), 0u);
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
          kind == ProtocolKind::kJavaIc ? 100 * t0.clock.cpu().check_cost() : 0;
      EXPECT_EQ(t0.clock.pending(), expected) << protocol_name(kind);
    });
  }
  // hybrid checks an ic-mode replica (a fresh page starts in ic mode) as
  // java_ic does, well below the give-up tally; its home pages go bare.
  run_two_nodes(ProtocolKind::kHybrid, [&](DsmSystem& dsm, ThreadCtx& t0, ThreadCtx&) {
    const Gva home = dsm.alloc(0, 8);
    const Gva replica = dsm.alloc(1, 8);
    do_get<std::int64_t>(ProtocolKind::kHybrid, t0, replica);  // the miss flushes
    ASSERT_TRUE(dsm.node_dsm(0).ic_mode(dsm.layout().page_of(replica)));
    ASSERT_EQ(t0.clock.pending(), 0u);
    for (int i = 0; i < 100; ++i) {
      do_get<std::int64_t>(ProtocolKind::kHybrid, t0, replica);
      do_get<std::int64_t>(ProtocolKind::kHybrid, t0, home);
    }
    EXPECT_EQ(t0.clock.pending(), 100 * t0.clock.cpu().check_cost());
    dsm.update_main_memory(t0);
    EXPECT_EQ(t0.stats->get(Counter::kInlineChecks), 101u);  // the missing access too
  });
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
    c.spawn_thread(1, numbered("reader", i), [&dsm, &done, a] {
      auto t = dsm.make_thread(1);
      EXPECT_EQ((PfPolicy::get<std::int64_t>(*t, a)), 5);
      ++done;
    });
  }
  c.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(c.node(1).stats().get(Counter::kPageFetches), 1u);
}

// Per-page DSM state is lazily committed: a node pays for the pages it
// touches, never region size x nodes. Eager tables cost 41 B per page per
// node under hybrid (presence, twin pointer, four heat counters): 688 MB for
// this shape; hybrid's per-system override and migration tables, 2.9 MB.
TEST(DsmFootprint, HybridSystemAt256NodesCostsTouchedStateOnly) {
  constexpr int kNodes = 256;
  constexpr std::size_t kPages = 65536;
  cluster::Cluster c(test_params(), kNodes);
  const std::size_t page_bytes = c.params().page_bytes;
  const std::size_t before = rss_bytes();
  {
    DsmSystem dsm(&c, kPages * page_bytes, ProtocolKind::kHybrid);
    EXPECT_LT(rss_growth_since(before), std::size_t{8} << 20);
    const Layout& layout = dsm.layout();
    const unsigned stride = dsm.access_heat().node_shift();
    for (NodeId n : {0, 1, kNodes - 1}) {
      NodeDsm& nd = dsm.node_dsm(n);
      const obs::WindowedHeat::Slot* window = dsm.access_window(n);
      for (PageId p = 0; p < layout.total_pages(); ++p) {
        const bool home = layout.home_of_page(p) == n;
        // A non-home page starts absent in hybrid's ic mode: byte 0.
        ASSERT_EQ(int{nd.presence_data()[p]}, home ? NodeDsm::kPresentBit | NodeDsm::kHomeBit : 0);
        ASSERT_TRUE(home || nd.ic_mode(p));
        ASSERT_FALSE(nd.has_twin(p));
        // The node's slot of page p, at the page-major index.
        const obs::WindowedHeat::Slot& s = window[std::size_t{p} << stride];
        ASSERT_EQ(s.raw | s.acc | s.miss | s.stamp, 0u);
        ASSERT_EQ(dsm.effective_home_of_page(p), layout.home_of_page(p));
      }
      EXPECT_EQ(nd.live_twins(), 0u);
    }
  }
  EXPECT_LT(rss_growth_since(before), std::size_t{8} << 20);
}

// hybrid's heat is one page-major table for every node, so all nodes' slots
// of one page share one stride (8 KB at 256 nodes). In Barnes' shape every
// node touches the first page of each zone: that commits 2 MB of slots here,
// where one table per node commits one OS page per (node, page), 256 MB.
TEST(DsmFootprint, HeatOfPagesEveryNodeTouchesCommitsOnce) {
  constexpr int kNodes = 256;
  constexpr std::size_t kPages = 65536;
  cluster::Cluster c(test_params(), kNodes);
  DsmSystem dsm(&c, kPages * c.params().page_bytes, ProtocolKind::kHybrid);
  const Layout& layout = dsm.layout();
  std::vector<std::unique_ptr<ThreadCtx>> threads;
  for (NodeId n = 0; n < kNodes; ++n) threads.push_back(dsm.make_thread(n));
  const std::size_t before = rss_bytes();
  for (const auto& t : threads) {
    for (NodeId zone = 0; zone < kNodes; ++zone) {
      ++t->heat(layout.page_of(layout.zone_begin(zone))).raw;  // the fast path's bump
    }
  }
  EXPECT_LT(rss_growth_since(before), std::size_t{8} << 20);
  for (NodeId n : {0, 1, kNodes - 1}) {
    for (NodeId zone = 0; zone < kNodes; ++zone) {
      ASSERT_EQ(dsm.access_heat().slot(n, layout.page_of(layout.zone_begin(zone))).raw, 1u);
    }
  }
}

// A replica commits the bytes its zone has allocated, not its whole page: 32
// readers each cache 31 pages of 64 KB holding one 64-byte object. Full-page
// installs commit 62 MB here, and so would java_pf's twins if a replica that
// is only read took its twin's bytes.
TEST(DsmFootprint, ReplicasCommitOnlyTheAllocatedBytesOfTheirPages) {
  constexpr int kNodes = 32;
  cluster::ClusterParams params = test_params();
  params.page_bytes = std::size_t{64} << 10;
  for (ProtocolKind kind : {ProtocolKind::kJavaIc, ProtocolKind::kJavaPf, ProtocolKind::kHybrid}) {
    cluster::Cluster c(params, kNodes);
    const std::size_t before = rss_bytes();
    DsmSystem dsm(&c, kNodes * 4 * params.page_bytes, kind);
    std::vector<Gva> objects;
    for (NodeId n = 0; n < kNodes; ++n) {
      objects.push_back(dsm.alloc(n, 64));
      dsm.poke_home<std::int64_t>(objects.back(), 100 + n);
    }
    for (NodeId n = 0; n < kNodes; ++n) {
      c.spawn_thread(n, numbered("reader", n), [&, n] {
        auto t = dsm.make_thread(n);
        for (NodeId m = 0; m < kNodes; ++m) {
          if (m == n) continue;
          EXPECT_EQ((do_get<std::int64_t>(kind, *t, objects[m])), 100 + m);
        }
      });
    }
    c.run();
    EXPECT_LT(rss_growth_since(before), std::size_t{24} << 20) << protocol_name(kind);
  }
}

// Twins are freed with their cached pages when the system goes away: the
// NodeDsm destructor walks the cached list and checks that no twin is left.
// Only the page stored to holds twin bytes; the two only read hold none.
TEST(DsmFootprint, TwinsOfCachedPagesAreFreedAtTeardown) {
  cluster::Cluster c(test_params(), 2);
  auto dsm = std::make_unique<DsmSystem>(&c, kRegion, ProtocolKind::kJavaPf);
  const Gva a = dsm->alloc(0, 3 * 4096);
  c.spawn_thread(1, "reader", [&] {
    auto t = dsm->make_thread(1);
    for (Gva off = 0; off < 3 * 4096; off += 4096) {
      EXPECT_EQ((PfPolicy::get<std::int64_t>(*t, a + off)), 0);
    }
    PfPolicy::put<std::int64_t>(*t, a + 4096, 7);
  });
  c.run();
  const NodeDsm& nd = dsm->node_dsm(1);
  const PageId first = dsm->layout().page_of(a);
  EXPECT_EQ(nd.live_twins(), 3u);
  EXPECT_EQ(nd.cached_pages().size(), 3u);
  EXPECT_FALSE(nd.has_twin_bytes(first));
  EXPECT_TRUE(nd.has_twin_bytes(first + 1));
  EXPECT_FALSE(nd.has_twin_bytes(first + 2));
  dsm.reset();  // aborts if a twin outlived its cached page
}

// --- the one hand-off (DsmSystem::hand_off) ----------------------------------

std::uint32_t arena_u32(DsmSystem& dsm, NodeId node, Gva a) {
  std::uint32_t v = 0;
  std::memcpy(&v, dsm.node_dsm(node).arena() + a, sizeof(v));
  return v;
}

// Node 1 caches a page homed on node 0 with a twin and stores bytes 0-3 of a
// word without flushing; node 2 then stores bytes 4-7 of the same word and
// flushes. Moving the home to node 1 keeps both: node 1's bytes that differ
// from its twin win, every other byte takes the old home's. A word-granular
// merge would keep node 1's whole word and lose node 2's flushed store.
TEST(DsmHandOff, MergesTheNewHomesUnflushedBytesNotWholeWords) {
  cluster::Cluster c(test_params(), 4);
  DsmSystem dsm(&c, kRegion, ProtocolKind::kJavaPf);
  const Gva a = dsm.alloc(0, 8);
  const PageId p = dsm.layout().page_of(a);
  c.spawn_thread(1, "new_home", [&] {
    auto t = dsm.make_thread(1);
    PfPolicy::put<std::uint32_t>(*t, a, 0x11111111);
  });
  c.spawn_thread(2, "flusher", [&] {
    auto t = dsm.make_thread(2);
    sim::sleep_until(kMillisecond);
    PfPolicy::put<std::uint32_t>(*t, a + 4, 0x22222222);
    dsm.update_main_memory(*t);
  });
  c.run();
  ASSERT_TRUE(dsm.node_dsm(1).has_twin_bytes(p));
  ASSERT_EQ(arena_u32(dsm, 0, a + 4), 0x22222222u);
  ASSERT_EQ(arena_u32(dsm, 1, a + 4), 0u);

  dsm.hand_off(p, p + 1, 0, 1);
  EXPECT_TRUE(dsm.node_dsm(1).is_home(p));
  EXPECT_FALSE(dsm.node_dsm(1).has_twin(p));
  EXPECT_EQ(arena_u32(dsm, 1, a), 0x11111111u);
  EXPECT_EQ(arena_u32(dsm, 1, a + 4), 0x22222222u);
}

// A whole-zone hand-off (the HA promotion's) under hybrid: node 1 holds an
// unflushed ic-mode store (write log) on page P and an unflushed pf-mode
// store (twin delta) on page Q, both homed in zone 0. The new home keeps
// both over the old home's bytes, takes every other byte from it, and the
// home-moved hook fires once with the zone's range.
TEST(DsmHandOff, ZoneHandOffKeepsTwinDeltaAndLoggedStoreAndFiresTheHookOnce) {
  cluster::Cluster c(test_params(), 4);
  DsmSystem dsm(&c, kRegion, ProtocolKind::kHybrid);
  const Layout& layout = dsm.layout();
  const Gva pa = dsm.alloc(0, layout.page_bytes(), layout.page_bytes());
  const Gva qa = dsm.alloc(0, layout.page_bytes(), layout.page_bytes());
  const PageId q = layout.page_of(qa);
  struct Move {
    NodeId from, to;
    Gva begin, end;
  };
  std::vector<Move> moves;
  dsm.set_home_moved_hook([&](NodeId from, NodeId to, Gva begin, Gva end) {
    moves.push_back({from, to, begin, end});
  });
  // The ThreadCtx outlives the run: the hand-off replays its write log.
  auto t = dsm.make_thread(1);
  c.spawn_thread(1, "new_home", [&] {
    HybridPolicy::put<std::uint32_t>(*t, pa, 0xAAAAAAAA);  // ic: logged
    // A dense run of reads gives Q up to pf mode (DsmSystem::give_up_ic).
    for (int i = 0; i < 1 << 20 && dsm.node_dsm(1).ic_mode(q); ++i) {
      (void)HybridPolicy::get<std::uint32_t>(*t, qa + 16);
    }
    HybridPolicy::put<std::uint32_t>(*t, qa, 0xBBBBBBBB);  // pf: twin delta
  });
  c.run();
  ASSERT_FALSE(dsm.node_dsm(1).ic_mode(q));
  ASSERT_TRUE(dsm.node_dsm(1).has_twin_bytes(q));
  ASSERT_EQ(t->wlog.entries().size(), 1u);
  // The old home's bytes that node 1 never stored to.
  dsm.poke_home<std::uint32_t>(pa + 4, 1);
  dsm.poke_home<std::uint32_t>(qa + 4, 2);
  dsm.poke_home<std::uint32_t>(pa, 3);
  dsm.poke_home<std::uint32_t>(qa, 4);

  const PageId first = layout.page_of(layout.zone_begin(0));
  const PageId last = layout.page_of(layout.zone_end(0));
  dsm.hand_off(first, last, 0, 1);
  EXPECT_EQ(arena_u32(dsm, 1, pa), 0xAAAAAAAAu);
  EXPECT_EQ(arena_u32(dsm, 1, qa), 0xBBBBBBBBu);
  EXPECT_EQ(arena_u32(dsm, 1, pa + 4), 1u);
  EXPECT_EQ(arena_u32(dsm, 1, qa + 4), 2u);
  for (PageId p = first; p < last; ++p) ASSERT_TRUE(dsm.node_dsm(1).is_home(p)) << p;
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from, 0);
  EXPECT_EQ(moves[0].to, 1);
  EXPECT_EQ(moves[0].begin, layout.zone_begin(0));
  EXPECT_EQ(moves[0].end, layout.zone_end(0));
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
