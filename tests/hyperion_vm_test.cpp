#include "hyperion/vm.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hyperion/japi.hpp"
#include "test_util.hpp"

namespace hyp::hyperion {
namespace {

VmConfig test_config(dsm::ProtocolKind kind, int nodes) {
  VmConfig cfg;
  cfg.cluster = cluster::ClusterParams::myrinet200();
  cfg.nodes = nodes;
  cfg.protocol = kind;
  cfg.region_bytes = std::size_t{16} << 20;
  return cfg;
}

class VmProtocolTest : public ::testing::TestWithParam<dsm::ProtocolKind> {};
INSTANTIATE_TEST_SUITE_P(BothProtocols, VmProtocolTest,
                         ::testing::Values(dsm::ProtocolKind::kJavaIc,
                                           dsm::ProtocolKind::kJavaPf),
                         [](const auto& param_info) { return dsm::protocol_name(param_info.param); });

TEST_P(VmProtocolTest, RunMainReturnsNonzeroElapsed) {
  HyperionVM vm(test_config(GetParam(), 2));
  const Time t = vm.run_main([](JavaEnv& main) { main.charge_cycles(1000); });
  EXPECT_GT(t, 0u);
  EXPECT_EQ(t, vm.elapsed());
}

TEST_P(VmProtocolTest, RoundRobinPlacement) {
  HyperionVM vm(test_config(GetParam(), 3));
  std::vector<NodeId> nodes;
  vm.run_main([&](JavaEnv& main) {
    std::vector<JThread> ts;
    for (int i = 0; i < 6; ++i) {
      ts.push_back(main.start_thread(numbered("t", i),
                                     [&nodes](JavaEnv& env) { nodes.push_back(env.node()); }));
      EXPECT_EQ(ts.back().node(), i % 3);
    }
    for (auto& t : ts) main.join(t);
  });
  EXPECT_EQ(nodes.size(), 6u);
}

TEST_P(VmProtocolTest, PinnedBalancerOverridesPlacement) {
  HyperionVM vm(test_config(GetParam(), 3));
  vm.set_balancer(std::make_unique<PinnedBalancer>(2));
  vm.run_main([&](JavaEnv& main) {
    auto t = main.start_thread("pinned", [](JavaEnv& env) { EXPECT_EQ(env.node(), 2); });
    EXPECT_EQ(t.node(), 2);
    main.join(t);
  });
}

TEST_P(VmProtocolTest, StartEdgeMakesPreStartWritesVisible) {
  // Writes by the parent before start() must be visible to the child with
  // no explicit synchronization (JMM: start() is a happens-before edge).
  HyperionVM vm(test_config(GetParam(), 2));
  std::int64_t seen = 0;
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      Mem<P> mem(main.ctx());
      auto cell = main.new_cell<std::int64_t>(0);
      mem.put(cell, std::int64_t{55});
      auto t = main.start_thread("reader", [=, &seen](JavaEnv& env) {
        Mem<P> m2(env.ctx());
        seen = m2.get(cell);
      });
      main.join(t);
    });
  });
  EXPECT_EQ(seen, 55);
}

TEST_P(VmProtocolTest, JoinEdgeMakesChildWritesVisible) {
  HyperionVM vm(test_config(GetParam(), 2));
  std::int64_t seen = 0;
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto cell = main.new_cell<std::int64_t>(0);
      Mem<P> mem(main.ctx());
      // Cache the page on main's node before the child writes it, so join
      // must actually invalidate to pass.
      EXPECT_EQ(mem.get(cell), 0);
      auto t = main.start_thread("writer", [=](JavaEnv& env) {
        Mem<P> m2(env.ctx());
        m2.put(cell, std::int64_t{77});
      });
      main.join(t);
      seen = mem.get(cell);
    });
  });
  EXPECT_EQ(seen, 77);
}

TEST_P(VmProtocolTest, ArraysZeroInitializedWithLength) {
  HyperionVM vm(test_config(GetParam(), 2));
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      Mem<P> mem(main.ctx());
      auto arr = main.new_array<std::int32_t>(100);
      EXPECT_EQ(mem.alen(arr), 100);
      for (int i = 0; i < 100; ++i) EXPECT_EQ(mem.aget(arr, i), 0);
      mem.aput(arr, 42, std::int32_t{7});
      EXPECT_EQ(mem.aget(arr, 42), 7);
    });
  });
}

TEST_P(VmProtocolTest, ArrayCopyMovesElements) {
  HyperionVM vm(test_config(GetParam(), 2));
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      Mem<P> mem(main.ctx());
      auto src = main.new_array<std::int64_t>(10);
      auto dst = main.new_array<std::int64_t>(10);
      for (int i = 0; i < 10; ++i) mem.aput(src, i, std::int64_t{i * i});
      japi::arraycopy<P>(main, src, 2, dst, 5, 4);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(mem.aget(dst, 5 + i), (i + 2) * (i + 2));
      EXPECT_EQ(mem.aget(dst, 0), 0);
      EXPECT_EQ(mem.aget(dst, 9), 0);
    });
  });
}

TEST_P(VmProtocolTest, BarrierSynchronizesPhases) {
  // Each thread bumps its slot each round; after the barrier, every thread
  // must observe every other thread's value for that round.
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  HyperionVM vm(test_config(GetParam(), 4));
  int violations = 0;
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto slots = main.new_array<std::int32_t>(kThreads);
      auto barrier = japi::JBarrier::create(main, kThreads);
      std::vector<JThread> ts;
      for (int w = 0; w < kThreads; ++w) {
        ts.push_back(main.start_thread(numbered("p", w), [=, &violations](JavaEnv& env) {
          Mem<P> mem(env.ctx());
          for (int round = 1; round <= kRounds; ++round) {
            env.synchronized(slots.header, [&] { mem.aput(slots, w, std::int32_t{round}); });
            barrier.template await<P>(env);
            env.synchronized(slots.header, [&] {
              for (int other = 0; other < kThreads; ++other) {
                if (mem.aget(slots, other) < round) ++violations;
              }
            });
            barrier.template await<P>(env);
          }
        }));
      }
      for (auto& t : ts) main.join(t);
    });
  });
  EXPECT_EQ(violations, 0);
}

TEST_P(VmProtocolTest, CurrentTimeMillisTracksVirtualTime) {
  HyperionVM vm(test_config(GetParam(), 1));
  vm.run_main([&](JavaEnv& main) {
    const auto t0 = japi::current_time_millis(main);
    main.charge_cycles(1000);
    main.ctx().clock.flush();
    sim::Engine::current()->sleep_for(25 * kMillisecond);
    EXPECT_GE(japi::current_time_millis(main) - t0, 25);
  });
}

TEST_P(VmProtocolTest, DeterministicAcrossRuns) {
  auto run_once = [&](dsm::ProtocolKind kind) {
    HyperionVM vm(test_config(kind, 4));
    Time elapsed = 0;
    dsm::with_policy(kind, [&](auto policy) {
      using P = decltype(policy);
      elapsed = vm.run_main([&](JavaEnv& main) {
        auto counter = main.new_cell<std::int64_t>(0);
        std::vector<JThread> ts;
        for (int w = 0; w < 4; ++w) {
          ts.push_back(main.start_thread(numbered("w", w), [=](JavaEnv& env) {
            Mem<P> mem(env.ctx());
            for (int i = 0; i < 10; ++i) {
              env.synchronized(counter.addr, [&] { mem.put(counter, mem.get(counter) + 1); });
            }
          }));
        }
        for (auto& t : ts) main.join(t);
      });
    });
    return std::make_pair(elapsed, vm.stats().nonzero());
  };
  EXPECT_EQ(run_once(GetParam()), run_once(GetParam()));
}

TEST(VmTiming, SameProgramFasterOnTheFasterCluster) {
  // 450 MHz/SCI beats 200 MHz/Myrinet on a compute+sync-bound toy program.
  auto run_on = [&](cluster::ClusterParams params) {
    VmConfig cfg;
    cfg.cluster = params;
    cfg.nodes = 2;
    cfg.protocol = dsm::ProtocolKind::kJavaPf;
    cfg.region_bytes = std::size_t{16} << 20;
    HyperionVM vm(cfg);
    return vm.run_main([](JavaEnv& main) {
      auto cell = main.new_cell<std::int64_t>(0);
      auto t = main.start_thread("w", [=](JavaEnv& env) {
        Mem<dsm::PfPolicy> mem(env.ctx());
        for (int i = 0; i < 100; ++i) {
          env.charge_cycles(10000);
          env.synchronized(cell.addr, [&] { mem.put(cell, mem.get(cell) + 1); });
        }
      });
      main.join(t);
    });
  };
  EXPECT_LT(run_on(cluster::ClusterParams::sci450()),
            run_on(cluster::ClusterParams::myrinet200()));
}

}  // namespace
}  // namespace hyp::hyperion
