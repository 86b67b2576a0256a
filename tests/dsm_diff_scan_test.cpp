// Unit tests for the java_pf twin-diff scanner: run boundaries must be exact
// (word 0, last word, full page, alternating words, chunk interiors, page
// boundaries) and the steady-state access + flush paths must be
// allocation-free once scratch capacities are warm.
//
// The allocation-counting hook (alloc_hook.hpp) replaces global operator
// new/delete for THIS test binary only; it merely counts, so behavior is
// unchanged.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_hook.hpp"
#include "dsm/access.hpp"
#include "dsm/dsm.hpp"

namespace hyp::dsm {
namespace {

constexpr std::size_t kRegion = 1 << 20;

// Wire cost of one diff message: u32 run_count + per run (u64 gva + u32 len
// + payload bytes).
std::uint64_t msg_bytes(std::initializer_list<std::uint32_t> run_lens) {
  std::uint64_t total = 4;
  for (std::uint32_t len : run_lens) total += 8 + 4 + len;
  return total;
}

// Runs `body(dsm, t1)` with a thread on node 1 of a 2-node java_pf cluster.
template <typename Body>
void run_pf(Body body) {
  auto params = cluster::ClusterParams::myrinet200();
  cluster::Cluster c(params, 2);
  DsmSystem dsm(&c, kRegion, ProtocolKind::kJavaPf);
  c.spawn_thread(1, "t1", [&] {
    auto t1 = dsm.make_thread(1);
    body(dsm, *t1);
  });
  c.run();
}

struct Tally {
  std::uint64_t diff_words, update_bytes, updates_sent;
  static Tally of(const ThreadCtx& t) {
    return {t.stats->get(Counter::kDiffWords), t.stats->get(Counter::kUpdateBytes),
            t.stats->get(Counter::kUpdatesSent)};
  }
  Tally delta(const Tally& later) const {
    return {later.diff_words - diff_words, later.update_bytes - update_bytes,
            later.updates_sent - updates_sent};
  }
};

TEST(DiffScan, DirtyWordZeroProducesOneRunAtPageStart) {
  run_pf([](DsmSystem& dsm, ThreadCtx& t1) {
    const std::size_t page = dsm.layout().page_bytes();
    const Gva base = dsm.alloc(0, page, page);  // page-aligned, home = node 0
    PfPolicy::get<std::uint64_t>(t1, base);     // fault the page in (twin made)
    PfPolicy::put<std::uint64_t>(t1, base, 0xABCDull);

    const Tally before = Tally::of(t1);
    dsm.update_main_memory(t1);
    const Tally d = before.delta(Tally::of(t1));
    EXPECT_EQ(d.diff_words, 1u);
    EXPECT_EQ(d.updates_sent, 1u);
    EXPECT_EQ(d.update_bytes, msg_bytes({8}));
    EXPECT_EQ(dsm.read_home<std::uint64_t>(base), 0xABCDull);

    // Twin refreshed: an immediate re-flush ships nothing.
    const Tally again = Tally::of(t1);
    dsm.update_main_memory(t1);
    EXPECT_EQ(again.delta(Tally::of(t1)).updates_sent, 0u);
  });
}

TEST(DiffScan, DirtyLastWordProducesRunAtPageEnd) {
  run_pf([](DsmSystem& dsm, ThreadCtx& t1) {
    const std::size_t page = dsm.layout().page_bytes();
    const Gva base = dsm.alloc(0, page, page);
    const Gva last = base + page - 8;
    PfPolicy::get<std::uint64_t>(t1, base);
    PfPolicy::put<std::uint64_t>(t1, last, 0x1122334455667788ull);

    const Tally before = Tally::of(t1);
    dsm.update_main_memory(t1);
    const Tally d = before.delta(Tally::of(t1));
    EXPECT_EQ(d.diff_words, 1u);
    EXPECT_EQ(d.update_bytes, msg_bytes({8}));
    EXPECT_EQ(dsm.read_home<std::uint64_t>(last), 0x1122334455667788ull);
  });
}

TEST(DiffScan, FullPageDirtyIsOneMaximalRun) {
  run_pf([](DsmSystem& dsm, ThreadCtx& t1) {
    const std::size_t page = dsm.layout().page_bytes();
    const std::size_t words = page / 8;
    const Gva base = dsm.alloc(0, page, page);
    PfPolicy::get<std::uint64_t>(t1, base);
    for (std::size_t w = 0; w < words; ++w) {
      PfPolicy::put<std::uint64_t>(t1, base + w * 8, w + 1);  // != twin's zeros
    }

    const Tally before = Tally::of(t1);
    dsm.update_main_memory(t1);
    const Tally d = before.delta(Tally::of(t1));
    EXPECT_EQ(d.diff_words, words);
    EXPECT_EQ(d.updates_sent, 1u);
    EXPECT_EQ(d.update_bytes, msg_bytes({static_cast<std::uint32_t>(page)}));
    for (std::size_t w = 0; w < words; ++w) {
      ASSERT_EQ(dsm.read_home<std::uint64_t>(base + w * 8), w + 1);
    }
  });
}

TEST(DiffScan, AlternatingWordsProduceOneRunEach) {
  run_pf([](DsmSystem& dsm, ThreadCtx& t1) {
    const std::size_t page = dsm.layout().page_bytes();
    const std::size_t words = page / 8;
    const Gva base = dsm.alloc(0, page, page);
    PfPolicy::get<std::uint64_t>(t1, base);
    for (std::size_t w = 0; w < words; w += 2) {
      PfPolicy::put<std::uint64_t>(t1, base + w * 8, 0xF00D0000ull + w);
    }

    const Tally before = Tally::of(t1);
    dsm.update_main_memory(t1);
    const Tally d = before.delta(Tally::of(t1));
    EXPECT_EQ(d.diff_words, words / 2);
    EXPECT_EQ(d.updates_sent, 1u);
    // words/2 single-word runs, each with its own (gva, len) header.
    EXPECT_EQ(d.update_bytes, 4u + (words / 2) * (8u + 4u + 8u));
  });
}

TEST(DiffScan, RunsDoNotCrossPageBoundaries) {
  run_pf([](DsmSystem& dsm, ThreadCtx& t1) {
    const std::size_t page = dsm.layout().page_bytes();
    const Gva base = dsm.alloc(0, 2 * page, page);  // two contiguous pages
    PfPolicy::get<std::uint64_t>(t1, base);         // fault page 0
    PfPolicy::get<std::uint64_t>(t1, base + page);  // fault page 1
    // Adjacent in the address space but on different pages: must be two runs.
    PfPolicy::put<std::uint64_t>(t1, base + page - 8, 1ull);
    PfPolicy::put<std::uint64_t>(t1, base + page, 2ull);

    const Tally before = Tally::of(t1);
    dsm.update_main_memory(t1);
    const Tally d = before.delta(Tally::of(t1));
    EXPECT_EQ(d.diff_words, 2u);
    EXPECT_EQ(d.updates_sent, 1u);  // same home, one message with two runs
    EXPECT_EQ(d.update_bytes, msg_bytes({8, 8}));
    EXPECT_EQ(dsm.read_home<std::uint64_t>(base + page - 8), 1ull);
    EXPECT_EQ(dsm.read_home<std::uint64_t>(base + page), 2ull);
  });
}

TEST(DiffScan, ChunkInteriorRunsAreNotMergedOrMissed) {
  run_pf([](DsmSystem& dsm, ThreadCtx& t1) {
    const std::size_t page = dsm.layout().page_bytes();
    const Gva base = dsm.alloc(0, page, page);
    PfPolicy::get<std::uint64_t>(t1, base);
    // Run A: words 3..5 (interior of the first 64-byte chunk).
    for (std::size_t w = 3; w <= 5; ++w) PfPolicy::put<std::uint64_t>(t1, base + w * 8, w);
    // Run B: words 8..15 (exactly the second chunk). Words 6,7 stay clean,
    // so A and B must not merge.
    for (std::size_t w = 8; w <= 15; ++w) PfPolicy::put<std::uint64_t>(t1, base + w * 8, w);

    const Tally before = Tally::of(t1);
    dsm.update_main_memory(t1);
    const Tally d = before.delta(Tally::of(t1));
    EXPECT_EQ(d.diff_words, 3u + 8u);
    EXPECT_EQ(d.update_bytes, msg_bytes({24, 64}));
    for (std::size_t w = 3; w <= 5; ++w) ASSERT_EQ(dsm.read_home<std::uint64_t>(base + w * 8), w);
    for (std::size_t w = 8; w <= 15; ++w) ASSERT_EQ(dsm.read_home<std::uint64_t>(base + w * 8), w);
  });
}

// The acceptance bar for the host-perf work: once pages are present and
// scratch/pool capacities are warm, neither the access fast path nor the
// flush round-trip touches the allocator.
TEST(DiffScan, SteadyStateAccessAndFlushAreAllocationFree) {
  for (ProtocolKind kind : {ProtocolKind::kJavaIc, ProtocolKind::kJavaPf}) {
    auto params = cluster::ClusterParams::myrinet200();
    cluster::Cluster c(params, 2);
    DsmSystem dsm(&c, kRegion, kind);
    std::uint64_t during = 1;  // poisoned; set inside the fiber
    c.spawn_thread(1, "t1", [&] {
      auto t1p = dsm.make_thread(1);
      ThreadCtx& t1 = *t1p;
      const std::size_t page = dsm.layout().page_bytes();
      const Gva remote = dsm.alloc(0, page, page);  // home node 0: cached here
      const Gva local = dsm.alloc(1, page, page);   // home node 1: home access

      auto round = [&](std::uint64_t salt) {
        with_policy(kind, [&](auto policy) {
          using P = decltype(policy);
          for (std::size_t w = 0; w < 64; ++w) {
            const std::uint64_t x = P::template get<std::uint64_t>(t1, remote + w * 8);
            P::template put<std::uint64_t>(t1, remote + w * 8, x + salt + w);
            P::template put<std::uint64_t>(t1, local + w * 8, x ^ salt);
          }
        });
        dsm.update_main_memory(t1);
      };

      for (std::uint64_t i = 0; i < 8; ++i) round(i + 1);  // warm everything
      const std::uint64_t before = allocs();
      for (std::uint64_t i = 0; i < 64; ++i) round(i + 100);
      during = allocs() - before;
    });
    c.run();
    EXPECT_EQ(during, 0u) << "protocol " << protocol_name(kind)
                          << ": steady-state access/flush must not allocate";
  }
}

}  // namespace
}  // namespace hyp::dsm
