// Sharded event queue (engine.hpp configure_shards): the shard layout is an
// executor detail and must be invisible to the simulation.
//
//   * cross-check — the same seeded random workload runs once on the flat
//     single-shard heap and once per sharded layout; the observed dispatch
//     order (time, tag) must be identical element for element;
//   * steady state — per-shard heaps and the merge heap must recycle their
//     storage: no allocation once warmed (the sim_event_pool discipline).
//
// The allocation-counting hook (alloc_hook.hpp) replaces global operator
// new/delete for THIS test binary only; it merely counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "alloc_hook.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace hyp::sim {
namespace {

// Deterministic xorshift so the "random" workload is identical across runs.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

struct Obs {
  Time at;
  int tag;
  bool operator==(const Obs&) const = default;
};

// One seeded workload: `posters` fibers, each posting callback chains and
// sleeping pseudo-random amounts; every dispatch records (now, tag). When
// `shards` > 1, each poster is pinned to shard tag % shards and its posts
// target a pseudo-random shard — maximally scrambled layout.
std::vector<Obs> run_workload(std::uint32_t shards, std::uint64_t seed, int posters,
                              int rounds) {
  Engine eng;
  if (shards > 1) eng.configure_shards(shards);
  std::vector<Obs> order;
  for (int f = 0; f < posters; ++f) {
    auto body = [&eng, &order, shards, seed, f, rounds] {
      Rng rng{seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(f) + 1};
      for (int r = 0; r < rounds; ++r) {
        const int chain = static_cast<int>(rng.next() % 4);
        for (int c = 0; c < chain; ++c) {
          const Time at = eng.now() + 1 + static_cast<Time>(rng.next() % 500);
          // Always drawn so flat and sharded runs consume the same RNG
          // sequence; only the placement differs.
          const std::uint64_t shard_draw = rng.next();
          const int tag = f * 1000 + r * 10 + c;
          auto cb = [&eng, &order, tag] { order.push_back({eng.now(), tag}); };
          if (shards > 1) {
            eng.post_on(static_cast<std::uint32_t>(shard_draw % shards), at,
                        std::move(cb));
          } else {
            eng.post(at, std::move(cb));
          }
        }
        order.push_back({eng.now(), -f - 1});  // the fiber's own dispatch
        eng.sleep_for(1 + static_cast<TimeDelta>(rng.next() % 300));
      }
    };
    if (shards > 1) {
      eng.spawn_on(static_cast<std::uint32_t>(f) % shards, numbered("p", f),
                   std::move(body));
    } else {
      eng.spawn(numbered("p", f), std::move(body));
    }
  }
  const auto stuck = eng.run();
  EXPECT_TRUE(stuck.empty());
  EXPECT_EQ(eng.pending_events(), 0u);
  return order;
}

TEST(ShardedQueue, PopOrderMatchesFlatHeapAcrossLayouts) {
  for (std::uint64_t seed : {1ull, 42ull, 977ull}) {
    const std::vector<Obs> flat = run_workload(1, seed, 12, 40);
    ASSERT_FALSE(flat.empty());
    for (std::uint32_t shards : {2u, 3u, 8u, 64u}) {
      const std::vector<Obs> sharded = run_workload(shards, seed, 12, 40);
      ASSERT_EQ(flat.size(), sharded.size()) << "shards=" << shards << " seed=" << seed;
      for (std::size_t i = 0; i < flat.size(); ++i) {
        ASSERT_EQ(flat[i], sharded[i])
            << "divergence at dispatch " << i << " (shards=" << shards
            << " seed=" << seed << ")";
      }
    }
  }
}

TEST(ShardedQueue, ConfigureRejectedOnceEventsExist) {
  Engine eng;
  eng.configure_shards(4);  // still pristine: allowed
  EXPECT_EQ(eng.shard_count(), 4u);
  eng.post(10, [] {});
  EXPECT_DEATH(eng.configure_shards(8), "configure_shards");
}

TEST(ShardedQueue, SingleShardIsTheDefault) {
  Engine eng;
  EXPECT_EQ(eng.shard_count(), 1u);
}

TEST(ShardedQueue, SteadyStateShardChurnIsAllocationFree) {
  Engine eng;
  eng.configure_shards(8);
  std::uint64_t during = 1;  // poisoned; set by the driver fiber
  // One pinned sleeper per shard keeps every shard's heap and the merge heap
  // churning; the driver posts cross-shard callbacks in a rotation.
  for (std::uint32_t s = 0; s < 8; ++s) {
    eng.spawn_on(s, numbered("sleeper", s), [&eng] {
      for (int i = 0; i < 4200; ++i) eng.sleep_for(7);
    });
  }
  eng.spawn_on(0, "driver", [&eng, &during] {
    std::uint64_t sink = 0;
    auto round = [&](int i) {
      for (std::uint32_t s = 0; s < 8; ++s) {
        eng.post_on(s, eng.now() + 1 + s, [&sink, s] { sink += s; });
      }
      eng.sleep_for(10 + (i % 3));
    };
    for (int i = 0; i < 256; ++i) round(i);  // warm heaps, slots, free lists
    const std::uint64_t before = allocs();
    for (int i = 0; i < 3000; ++i) round(i);
    during = allocs() - before;
    if (sink == 0xdeadbeef) std::abort();  // keep the loop alive
  });
  eng.run();
  EXPECT_EQ(during, 0u) << "sharded push/pop and merge fix-ups must not allocate";
}

}  // namespace
}  // namespace hyp::sim
