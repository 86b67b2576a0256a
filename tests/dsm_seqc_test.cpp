// Tests of the seqc (Li/Hudak-style sequential consistency) protocol — the
// DSM-PM2 "multiple protocols on one platform" demonstration. The defining
// behavioural difference from the Java protocols: NO stale reads, ever,
// without any monitor traffic.
#include "dsm/seqc.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "test_util.hpp"

#include <string>
#include <tuple>
#include <vector>

namespace hyp::dsm {
namespace {

cluster::ClusterParams test_params(int nodes) {
  auto p = cluster::ClusterParams::myrinet200();
  p.default_nodes = nodes;
  return p;
}

constexpr std::size_t kRegion = std::size_t{4} << 20;

TEST(SeqC, HomeStartsExclusiveEverywhereElseInvalid) {
  cluster::Cluster c(test_params(3));
  SeqDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(1, 8);
  const PageId p = dsm.layout().page_of(a);
  EXPECT_EQ(dsm.mode(1, p), SeqMode::kExclusive);
  EXPECT_EQ(dsm.mode(0, p), SeqMode::kInvalid);
  EXPECT_EQ(dsm.mode(2, p), SeqMode::kInvalid);
}

TEST(SeqC, RemoteReadGetsCurrentValueAndReadMode) {
  cluster::Cluster c(test_params(2));
  SeqDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  c.spawn_thread(0, "writer-then-reader", [&] {
    auto t0 = dsm.make_thread(0);
    auto t1 = dsm.make_thread(1);
    dsm.write<std::int64_t>(*t0, a, 123);  // home write, already exclusive
    EXPECT_EQ((dsm.read<std::int64_t>(*t1, a)), 123);
    const PageId p = dsm.layout().page_of(a);
    EXPECT_EQ(dsm.mode(1, p), SeqMode::kRead);
    // The home was downgraded to a read replica by the foreign read.
    EXPECT_EQ(dsm.mode(0, p), SeqMode::kRead);
  });
  c.run();
}

TEST(SeqC, NoStaleReadsWithoutMonitors) {
  // The key contrast with Java consistency: after a remote write completes,
  // every subsequent read — with no synchronization whatsoever — sees it.
  cluster::Cluster c(test_params(3));
  SeqDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  c.spawn_thread(0, "driver", [&] {
    auto t0 = dsm.make_thread(0);
    auto t1 = dsm.make_thread(1);
    auto t2 = dsm.make_thread(2);
    EXPECT_EQ((dsm.read<std::int64_t>(*t1, a)), 0);  // t1 caches a replica
    dsm.write<std::int64_t>(*t2, a, 55);             // t2 takes exclusive
    EXPECT_EQ((dsm.read<std::int64_t>(*t1, a)), 55);  // t1's replica was invalidated
    EXPECT_EQ((dsm.read<std::int64_t>(*t0, a)), 55);  // home was invalidated too
  });
  c.run();
}

TEST(SeqC, WriteInvalidatesAllReaders) {
  cluster::Cluster c(test_params(4));
  SeqDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  c.spawn_thread(0, "driver", [&] {
    auto t1 = dsm.make_thread(1);
    auto t2 = dsm.make_thread(2);
    auto t3 = dsm.make_thread(3);
    dsm.read<std::int64_t>(*t1, a);
    dsm.read<std::int64_t>(*t2, a);
    dsm.write<std::int64_t>(*t3, a, 9);
    const PageId p = dsm.layout().page_of(a);
    EXPECT_EQ(dsm.mode(1, p), SeqMode::kInvalid);
    EXPECT_EQ(dsm.mode(2, p), SeqMode::kInvalid);
    EXPECT_EQ(dsm.mode(3, p), SeqMode::kExclusive);
  });
  c.run();
  EXPECT_GE(c.total_stats().get(Counter::kInvalidations), 2u);
}

TEST(SeqC, OwnershipMigratesBetweenWriters) {
  cluster::Cluster c(test_params(3));
  SeqDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  c.spawn_thread(0, "driver", [&] {
    auto t1 = dsm.make_thread(1);
    auto t2 = dsm.make_thread(2);
    for (std::int64_t i = 0; i < 10; ++i) {
      dsm.write<std::int64_t>(*t1, a, 2 * i);
      EXPECT_EQ((dsm.read<std::int64_t>(*t2, a)), 2 * i);
      dsm.write<std::int64_t>(*t2, a, 2 * i + 1);
      EXPECT_EQ((dsm.read<std::int64_t>(*t1, a)), 2 * i + 1);
    }
    EXPECT_EQ(dsm.read_master<std::int64_t>(a), 19);
  });
  c.run();
}

TEST(SeqC, HomeReacquiresItsOwnPage) {
  // The home loses its page to a foreign writer and must go through the
  // local directory path to get it back.
  cluster::Cluster c(test_params(2));
  SeqDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  c.spawn_thread(0, "driver", [&] {
    auto t0 = dsm.make_thread(0);
    auto t1 = dsm.make_thread(1);
    dsm.write<std::int64_t>(*t1, a, 77);  // foreign node takes exclusive
    const PageId p = dsm.layout().page_of(a);
    EXPECT_EQ(dsm.mode(0, p), SeqMode::kInvalid);
    EXPECT_EQ((dsm.read<std::int64_t>(*t0, a)), 77);  // local re-acquire (read)
    dsm.write<std::int64_t>(*t0, a, 78);              // local re-acquire (write)
    EXPECT_EQ(dsm.mode(0, p), SeqMode::kExclusive);
    EXPECT_EQ((dsm.read<std::int64_t>(*t1, a)), 78);
  });
  c.run();
}

TEST(SeqC, ConcurrentIncrementsUnderExternalLockAreExact) {
  // seqc provides coherence, not atomicity: serialize increments with a sim
  // mutex and verify no update is lost across ownership migrations.
  cluster::Cluster c(test_params(4));
  SeqDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  sim::SimMutex lock(&c.engine());
  constexpr int kThreads = 4;
  constexpr int kReps = 25;
  for (int w = 0; w < kThreads; ++w) {
    c.spawn_thread(w, numbered("w", w), [&, w] {
      auto t = dsm.make_thread(w);
      for (int i = 0; i < kReps; ++i) {
        sim::SimLockGuard guard(lock);
        dsm.write<std::int64_t>(*t, a, dsm.read<std::int64_t>(*t, a) + 1);
      }
    });
  }
  c.run();
  EXPECT_EQ(dsm.read_master<std::int64_t>(a), kThreads * kReps);
}

TEST(SeqC, ConcurrentUnsynchronizedWritersConverge) {
  // Many racing writers to the same cell: sequential consistency guarantees
  // a total order, so the final master value must be one of the written
  // values, all modes must be coherent, and the run must terminate.
  cluster::Cluster c(test_params(4));
  SeqDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  for (int w = 0; w < 4; ++w) {
    c.spawn_thread(w, numbered("racer", w), [&, w] {
      auto t = dsm.make_thread(w);
      for (int i = 0; i < 20; ++i) {
        dsm.write<std::int64_t>(*t, a, w * 100 + i);
        c.engine().sleep_for((w + 1) * kMicrosecond);
      }
    });
  }
  c.run();
  const std::int64_t final_value = dsm.read_master<std::int64_t>(a);
  const std::int64_t w = final_value / 100;
  const std::int64_t i = final_value % 100;
  EXPECT_GE(w, 0);
  EXPECT_LT(w, 4);
  EXPECT_EQ(i, 19);  // everyone's last write is their 19th
}

TEST(SeqC, ReadersShareWithoutTraffic) {
  cluster::Cluster c(test_params(2));
  SeqDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  c.spawn_thread(0, "driver", [&] {
    auto t1 = dsm.make_thread(1);
    dsm.read<std::int64_t>(*t1, a);
    const auto fetches = c.node(1).stats().get(Counter::kPageFetches);
    for (int i = 0; i < 100; ++i) dsm.read<std::int64_t>(*t1, a);
    EXPECT_EQ(c.node(1).stats().get(Counter::kPageFetches), fetches);  // all hits
  });
  c.run();
}

TEST(SeqC, DeterministicAcrossRuns) {
  auto run_once = [] {
    cluster::Cluster c(test_params(3));
    SeqDsm dsm(&c, kRegion);
    const Gva a = dsm.alloc(0, 8);
    for (int w = 0; w < 3; ++w) {
      c.spawn_thread(w, numbered("w", w), [&, w] {
        auto t = dsm.make_thread(w);
        for (int i = 0; i < 10; ++i) dsm.write<std::int64_t>(*t, a, w * 10 + i);
      });
    }
    c.run();
    return std::make_pair(dsm.read_master<std::int64_t>(a),
                          c.total_stats().get(Counter::kMessages));
  };
  EXPECT_EQ(run_once(), run_once());
}


// Property sweep: random interleaved operations under a global lock must
// match a sequential reference exactly — across seeds and node counts.
class SeqcProperty : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};
INSTANTIATE_TEST_SUITE_P(Sweep, SeqcProperty,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(1u, 7u, 13u)),
                         [](const auto& param_info) {
                           return numbered("n", std::get<0>(param_info.param)) + "_s" +
                                  std::to_string(std::get<1>(param_info.param));
                         });

TEST_P(SeqcProperty, LockedRandomOpsMatchSequentialReference) {
  const auto [nodes, seed] = GetParam();
  constexpr int kCells = 6;
  constexpr int kOpsPerThread = 30;

  cluster::Cluster c(test_params(nodes));
  SeqDsm dsm(&c, kRegion);
  std::vector<Gva> cells;
  for (int i = 0; i < kCells; ++i) cells.push_back(dsm.alloc(i % nodes, 8));

  sim::SimMutex lock(&c.engine());
  std::vector<std::int64_t> reference(kCells, 0);
  sim::SimMutex ref_guard(&c.engine());  // reference updated in lock order

  for (int w = 0; w < nodes; ++w) {
    c.spawn_thread(w, numbered("w", w), [&, w, seed_v = seed] {
      auto t = dsm.make_thread(w);
      Rng rng(seed_v * 131 + static_cast<std::uint64_t>(w));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int a = static_cast<int>(rng.below(kCells));
        const int b = static_cast<int>(rng.below(kCells));
        const auto delta = static_cast<std::int64_t>(rng.range(-9, 9));
        sim::SimLockGuard guard(lock);
        // cells[a] += delta; cells[b] += cells[a] (order-sensitive, so the
        // reference is updated inside the same critical section).
        const auto va = dsm.read<std::int64_t>(*t, cells[static_cast<std::size_t>(a)]) + delta;
        dsm.write<std::int64_t>(*t, cells[static_cast<std::size_t>(a)], va);
        const auto vb = dsm.read<std::int64_t>(*t, cells[static_cast<std::size_t>(b)]) + va;
        dsm.write<std::int64_t>(*t, cells[static_cast<std::size_t>(b)], vb);
        reference[static_cast<std::size_t>(a)] += delta;
        reference[static_cast<std::size_t>(b)] += reference[static_cast<std::size_t>(a)];
      }
    });
  }
  c.run();
  for (int i = 0; i < kCells; ++i) {
    EXPECT_EQ(dsm.read_master<std::int64_t>(cells[static_cast<std::size_t>(i)]),
              reference[static_cast<std::size_t>(i)])
        << "cell " << i;
  }
}

}  // namespace
}  // namespace hyp::dsm

