// Thread migration: PM2's signature mechanism, named by the paper as the
// next experiment ("We plan to use this feature to experiment with other
// mechanisms to implement Java consistency, including thread migration").
#include <gtest/gtest.h>

#include "hyperion/japi.hpp"
#include "hyperion/vm.hpp"

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

class MigrationTest : public ::testing::TestWithParam<dsm::ProtocolKind> {};
INSTANTIATE_TEST_SUITE_P(BothProtocols, MigrationTest,
                         ::testing::Values(dsm::ProtocolKind::kJavaIc,
                                           dsm::ProtocolKind::kJavaPf),
                         [](const auto& param_info) { return dsm::protocol_name(param_info.param); });

TEST_P(MigrationTest, ThreadMovesAndSeesItsNewNode) {
  HyperionVM vm(test_config(GetParam(), 3));
  std::vector<NodeId> visited;
  vm.run_main([&](JavaEnv& main) {
    auto t = main.start_thread("nomad", [&visited](JavaEnv& env) {
      visited.push_back(env.node());
      env.migrate_to(2);
      visited.push_back(env.node());
      env.migrate_to(1);
      visited.push_back(env.node());
    });
    main.join(t);
  });
  EXPECT_EQ(visited, (std::vector<NodeId>{0, 2, 1}));
  EXPECT_EQ(vm.stats().get(Counter::kThreadMigrations), 2u);
}

TEST_P(MigrationTest, ReferencesStayValidAcrossMigration) {
  // Iso-addressing: a GRef captured before the move dereferences correctly
  // after it (from the new node's view of the shared space).
  HyperionVM vm(test_config(GetParam(), 3));
  std::int64_t before = 0, after = 0;
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto cell = main.new_cell<std::int64_t>(777);  // homed on node 0
      auto t = main.start_thread("nomad", [=, &before, &after](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        before = mem.get(cell);
        env.migrate_to(2);
        after = mem.get(cell);  // same Gva, new node: refetches from home
      });
      main.join(t);
    });
  });
  EXPECT_EQ(before, 777);
  EXPECT_EQ(after, 777);
}

TEST_P(MigrationTest, WritesBeforeMigrationVisibleAfter) {
  HyperionVM vm(test_config(GetParam(), 3));
  std::int64_t seen = 0;
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto cell = main.new_cell<std::int64_t>(0);
      auto t = main.start_thread("nomad", [=, &seen](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        mem.put(cell, std::int64_t{42});  // written from node 0's replica...
        env.migrate_to(1);                // release-flush travels with us
        seen = mem.get(cell);             // ...read back from node 1
      });
      main.join(t);
    });
  });
  EXPECT_EQ(seen, 42);
}

TEST_P(MigrationTest, MonitorOwnershipSurvivesMigration) {
  // The monitor tracks the thread uid, not the node: enter on one node,
  // exit from another.
  HyperionVM vm(test_config(GetParam(), 3));
  bool completed = false;
  vm.run_main([&](JavaEnv& main) {
    auto cell = main.new_cell<std::int32_t>(0);
    auto t = main.start_thread("nomad", [=, &completed](JavaEnv& env) {
      env.monitor_enter(cell.addr);
      env.migrate_to(2);
      env.monitor_exit(cell.addr);  // still the owner
      completed = true;
    });
    main.join(t);
  });
  EXPECT_TRUE(completed);
}

TEST_P(MigrationTest, MigrationToSelfIsFree) {
  HyperionVM vm(test_config(GetParam(), 2));
  vm.run_main([&](JavaEnv& main) {
    const Time before = main.now();
    main.migrate_to(0);  // main runs on node 0
    EXPECT_EQ(main.now(), before);
  });
  EXPECT_EQ(vm.stats().get(Counter::kThreadMigrations), 0u);
}

TEST_P(MigrationTest, MigrationCostScalesWithStateSize) {
  auto cost_of = [&](std::size_t bytes) {
    HyperionVM vm(test_config(GetParam(), 2));
    Time elapsed = 0;
    vm.run_main([&](JavaEnv& main) {
      auto t = main.start_thread("nomad", [bytes, &elapsed](JavaEnv& env) {
        const Time begin = env.now();
        env.migrate_to(1, bytes);
        elapsed = env.now() - begin;
      });
      main.join(t);
    });
    return elapsed;
  };
  EXPECT_LT(cost_of(1024), cost_of(1024 * 1024));
}

TEST_P(MigrationTest, ComputeToDataBeatsRemoteAccessForBigData) {
  // PM2's pitch: when the data is much bigger than the thread state, move
  // the thread, not the pages.
  const int kCells = 16384;  // 128 KiB on node 1
  auto run_with = [&](bool migrate) {
    HyperionVM vm(test_config(GetParam(), 2));
    Time elapsed = 0;
    dsm::with_policy(GetParam(), [&](auto policy) {
      using P = decltype(policy);
      vm.run_main([&](JavaEnv& main) {
        auto t = main.start_thread("walker", [&, migrate](JavaEnv& env) {
          Mem<P> mem(env.ctx());
          env.migrate_to(1);  // build the data on node 1 (home = node 1)
          auto data = env.new_array<std::int64_t>(kCells);
          for (int i = 0; i < kCells; ++i) mem.aput(data, i, static_cast<std::int64_t>(i));
          env.migrate_to(0);  // walk away from the data...
          const Time begin = env.now();
          if (migrate) env.migrate_to(1);  // ...and optionally back to it
          std::int64_t acc = 0;
          for (int i = 0; i < kCells; ++i) {
            acc += mem.aget(data, i);
            env.charge_cycles(6);
          }
          (void)acc;
          env.ctx().clock.flush();
          elapsed = env.now() - begin;
        });
        main.join(t);
      });
    });
    return elapsed;
  };
  EXPECT_LT(run_with(true), run_with(false));
}

// hybrid: migrate_to rebinds ThreadCtx::awin to the destination node's base
// in the one page-major heat table, so a thread's accesses count in its
// current node's slot of the page and the node it left stops counting.
TEST(MigrationHeat, HybridAccessesCountInTheCurrentNodesSlot) {
  HyperionVM vm(test_config(dsm::ProtocolKind::kHybrid, 3));
  const obs::WindowedHeat& heat = vm.dsm().access_heat();
  obs::WindowedHeat::Slot on1_left, on1_end, on2_end;
  vm.run_main([&](JavaEnv& main) {
    auto cell = main.new_cell<std::int64_t>(5);  // homed on node 0
    const dsm::PageId page = vm.dsm().layout().page_of(cell.addr);
    auto t = main.start_thread("nomad", [&, cell, page](JavaEnv& env) {
      Mem<dsm::HybridPolicy> mem(env.ctx());
      env.migrate_to(1);
      for (int i = 0; i < 10; ++i) EXPECT_EQ(mem.get(cell), 5);
      on1_left = heat.slot(1, page);
      env.migrate_to(2);
      for (int i = 0; i < 7; ++i) EXPECT_EQ(mem.get(cell), 5);
      on1_end = heat.slot(1, page);
      on2_end = heat.slot(2, page);
    });
    main.join(t);
  });
  // Each node's first access missed, which folded it into the window.
  EXPECT_EQ(on1_left.raw + on1_left.acc, 10u);
  EXPECT_EQ(on1_left.miss, 1u);
  EXPECT_EQ(on2_end.raw + on2_end.acc, 7u);
  EXPECT_EQ(on2_end.miss, 1u);
  EXPECT_EQ(on1_end.raw, on1_left.raw);
  EXPECT_EQ(on1_end.acc, on1_left.acc);
  EXPECT_EQ(on1_end.miss, on1_left.miss);
  EXPECT_EQ(on1_end.stamp, on1_left.stamp);
}

// java_ic: a check is tallied on the node the thread ran it on. migrate_to
// flushes before it rebinds, so the checks made before the move land on the
// source node and those after it on the target.
TEST(MigrationChecks, InlineChecksStayWithTheNodeThatRanThem) {
  constexpr std::uint64_t kBefore = 9, kAfter = 4;
  HyperionVM vm(test_config(dsm::ProtocolKind::kJavaIc, 2));
  vm.run_main([&](JavaEnv& main) {
    Mem<dsm::IcPolicy> mem(main.ctx());
    auto cell = main.new_cell<std::int64_t>(0);  // homed on node 0
    for (std::uint64_t i = 0; i < kBefore; ++i) mem.put(cell, std::int64_t{1});
    main.migrate_to(1);
    for (std::uint64_t i = 0; i < kAfter; ++i) EXPECT_EQ(mem.get(cell), 1);
  });
  EXPECT_EQ(vm.cluster().node(0).stats().get(Counter::kInlineChecks), kBefore);
  EXPECT_EQ(vm.cluster().node(1).stats().get(Counter::kInlineChecks), kAfter);
}

TEST(MigrationDeath, TargetOutOfRangeAborts) {
  HyperionVM vm(test_config(dsm::ProtocolKind::kJavaPf, 2));
  EXPECT_DEATH(vm.run_main([](JavaEnv& main) { main.migrate_to(9); }), "out of range");
}

}  // namespace
}  // namespace hyp::hyperion
