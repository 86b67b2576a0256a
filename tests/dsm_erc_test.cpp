// Tests of the erc (eager release consistency, write-update) protocol.
// Defining behaviours vs the Java protocols: replicas are patched in place
// at the *writer's release* (no invalidation, no refetch), and acquires are
// free.
#include "dsm/erc.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <string>

namespace hyp::dsm {
namespace {

cluster::ClusterParams test_params(int nodes) {
  auto p = cluster::ClusterParams::myrinet200();
  p.default_nodes = nodes;
  return p;
}

constexpr std::size_t kRegion = std::size_t{4} << 20;

TEST(Erc, FetchJoinsSharers) {
  cluster::Cluster c(test_params(3));
  ErcDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  c.spawn_thread(0, "driver", [&] {
    auto t1 = dsm.make_thread(1);
    auto t2 = dsm.make_thread(2);
    dsm.read<std::int64_t>(*t1, a);
    dsm.read<std::int64_t>(*t2, a);
    const PageId p = dsm.layout().page_of(a);
    EXPECT_EQ(dsm.sharers(p).size(), 2u);
  });
  c.run();
}

TEST(Erc, ReleasePushesUpdatesToHome) {
  cluster::Cluster c(test_params(2));
  ErcDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  c.spawn_thread(1, "writer", [&] {
    auto t = dsm.make_thread(1);
    dsm.write<std::int64_t>(*t, a, 99);
    EXPECT_EQ(dsm.read_home<std::int64_t>(a), 0);  // not yet released
    dsm.on_release(*t);
    EXPECT_EQ(dsm.read_home<std::int64_t>(a), 99);
  });
  c.run();
}

TEST(Erc, ReplicasArePatchedInPlaceWithoutRefetch) {
  // The headline difference from Java consistency: a reader's cached copy is
  // updated by the WRITER's release; the reader never invalidates, never
  // refetches, and still sees the new value.
  cluster::Cluster c(test_params(3));
  ErcDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  dsm.poke_home<std::int64_t>(a, 1);
  c.spawn_thread(0, "driver", [&] {
    auto reader = dsm.make_thread(1);
    auto writer = dsm.make_thread(2);
    EXPECT_EQ((dsm.read<std::int64_t>(*reader, a)), 1);  // caches the page
    const auto fetches_before = c.node(1).stats().get(Counter::kPageFetches);

    dsm.write<std::int64_t>(*writer, a, 2);
    dsm.on_release(*writer);  // blocks until node 1's replica is patched

    dsm.on_acquire(*reader);  // free: no invalidation
    EXPECT_EQ((dsm.read<std::int64_t>(*reader, a)), 2);
    EXPECT_EQ(c.node(1).stats().get(Counter::kPageFetches), fetches_before);  // no refetch!
  });
  c.run();
}

TEST(Erc, UpdatesDoNotEchoBackFromReaders) {
  // A forwarded update patches the replica AND its twin; the reader's next
  // release must not re-diff (and re-broadcast) the writer's words.
  cluster::Cluster c(test_params(3));
  ErcDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  c.spawn_thread(0, "driver", [&] {
    auto reader = dsm.make_thread(1);
    auto writer = dsm.make_thread(2);
    dsm.read<std::int64_t>(*reader, a);
    dsm.write<std::int64_t>(*writer, a, 5);
    dsm.on_release(*writer);
    const auto updates_before = c.node(1).stats().get(Counter::kUpdatesSent);
    dsm.on_release(*reader);  // reader wrote nothing: no updates
    EXPECT_EQ(c.node(1).stats().get(Counter::kUpdatesSent), updates_before);
  });
  c.run();
}

TEST(Erc, DisjointWritersMergeAtEveryCopy) {
  cluster::Cluster c(test_params(3));
  ErcDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  const Gva b = dsm.alloc(0, 8);  // same page
  c.spawn_thread(0, "driver", [&] {
    auto t1 = dsm.make_thread(1);
    auto t2 = dsm.make_thread(2);
    dsm.write<std::int64_t>(*t1, a, 11);
    dsm.write<std::int64_t>(*t2, b, 22);
    dsm.on_release(*t1);
    dsm.on_release(*t2);
    // Home and both replicas converge on the merged page.
    EXPECT_EQ(dsm.read_home<std::int64_t>(a), 11);
    EXPECT_EQ(dsm.read_home<std::int64_t>(b), 22);
    EXPECT_EQ((dsm.read<std::int64_t>(*t1, b)), 22);
    EXPECT_EQ((dsm.read<std::int64_t>(*t2, a)), 11);
  });
  c.run();
}

TEST(Erc, ReleaseAcquirePairTransfersDataAcrossFibers) {
  cluster::Cluster c(test_params(3));
  ErcDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  sim::SimMutex lock(&c.engine());
  std::int64_t seen = 0;
  c.spawn_thread(1, "writer", [&] {
    auto t = dsm.make_thread(1);
    sim::SimLockGuard guard(lock);
    dsm.write<std::int64_t>(*t, a, 1234);
    dsm.on_release(*t);
  });
  c.spawn_thread(2, "reader", [&] {
    auto t = dsm.make_thread(2);
    c.engine().sleep_for(10 * kMillisecond);  // after the writer's release
    sim::SimLockGuard guard(lock);
    dsm.on_acquire(*t);
    seen = dsm.read<std::int64_t>(*t, a);
  });
  c.run();
  EXPECT_EQ(seen, 1234);
}

TEST(Erc, ConcurrentIncrementsUnderLockAreExact) {
  cluster::Cluster c(test_params(4));
  ErcDsm dsm(&c, kRegion);
  const Gva a = dsm.alloc(0, 8);
  sim::SimMutex lock(&c.engine());
  constexpr int kThreads = 4;
  constexpr int kReps = 25;
  for (int w = 0; w < kThreads; ++w) {
    c.spawn_thread(w, numbered("w", w), [&, w] {
      auto t = dsm.make_thread(w);
      for (int i = 0; i < kReps; ++i) {
        sim::SimLockGuard guard(lock);
        dsm.on_acquire(*t);
        dsm.write<std::int64_t>(*t, a, dsm.read<std::int64_t>(*t, a) + 1);
        dsm.on_release(*t);
      }
    });
  }
  c.run();
  EXPECT_EQ(dsm.read_home<std::int64_t>(a), kThreads * kReps);
}

TEST(Erc, ReleaseFanOutScalesWithSharers) {
  // Each additional sharer costs the releaser one more forwarded update.
  auto messages_with_sharers = [&](int sharer_count) {
    cluster::Cluster c(test_params(6));
    ErcDsm dsm(&c, kRegion);
    const Gva a = dsm.alloc(0, 8);
    c.spawn_thread(0, "driver", [&] {
      std::vector<std::unique_ptr<ErcThreadCtx>> readers;
      for (int s = 0; s < sharer_count; ++s) {
        readers.push_back(dsm.make_thread(1 + s));
        dsm.read<std::int64_t>(*readers.back(), a);
      }
      auto writer = dsm.make_thread(5);
      dsm.write<std::int64_t>(*writer, a, 1);
      dsm.on_release(*writer);
    });
    c.run();
    return c.total_stats().get(Counter::kMessages);
  };
  EXPECT_GT(messages_with_sharers(3), messages_with_sharers(1));
}

TEST(ErcDeath, MisdirectedReleaseAborts) {
  cluster::Cluster c(test_params(3));
  ErcDsm dsm(&c, kRegion);
  const Gva on2 = dsm.alloc(2, 8);
  c.spawn_thread(0, "attacker", [&] {
    Buffer msg;
    msg.put<std::uint32_t>(1);
    msg.put<std::uint64_t>(on2);
    msg.put<std::uint32_t>(8);
    const std::int64_t v = 1;
    msg.put_bytes(&v, 8);
    c.call(0, 1, svc::kErcRelease, std::move(msg));
  });
  EXPECT_DEATH(c.run(), "non-home");
}

}  // namespace
}  // namespace hyp::dsm
