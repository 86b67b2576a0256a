#include "hyperion/monitor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hyperion/japi.hpp"
#include "hyperion/vm.hpp"
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

class MonitorProtocolTest : public ::testing::TestWithParam<dsm::ProtocolKind> {};
INSTANTIATE_TEST_SUITE_P(BothProtocols, MonitorProtocolTest,
                         ::testing::Values(dsm::ProtocolKind::kJavaIc,
                                           dsm::ProtocolKind::kJavaPf),
                         [](const auto& param_info) { return dsm::protocol_name(param_info.param); });

template <typename Policy>
void counter_increments(HyperionVM& vm, int threads, int reps, std::int64_t* out) {
  vm.run_main([&](JavaEnv& main) {
    auto counter = main.new_cell<std::int64_t>(0);
    std::vector<JThread> workers;
    for (int w = 0; w < threads; ++w) {
      workers.push_back(main.start_thread(numbered("w", w), [=](JavaEnv& env) {
        Mem<Policy> mem(env.ctx());
        for (int i = 0; i < reps; ++i) {
          env.synchronized(counter.addr, [&] { mem.put(counter, mem.get(counter) + 1); });
        }
      }));
    }
    for (auto& w : workers) main.join(w);
    Mem<Policy> mem(main.ctx());
    *out = mem.get(counter);
  });
}

TEST_P(MonitorProtocolTest, SynchronizedCounterIsExact) {
  // The classic lost-update test: 8 threads on 4 nodes, 25 increments each,
  // under the counter object's monitor. Any consistency bug loses updates.
  HyperionVM vm(test_config(GetParam(), 4));
  std::int64_t result = -1;
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    counter_increments<P>(vm, 8, 25, &result);
  });
  EXPECT_EQ(result, 8 * 25);
  EXPECT_GE(vm.stats().get(Counter::kMonitorEnters), 200u);
  EXPECT_EQ(vm.stats().get(Counter::kMonitorEnters), vm.stats().get(Counter::kMonitorExits));
}

TEST_P(MonitorProtocolTest, SingleNodeCounterIsExact) {
  // All contenders local to the monitor's home: exercises the local fast
  // path of the manager.
  HyperionVM vm(test_config(GetParam(), 1));
  std::int64_t result = -1;
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    counter_increments<P>(vm, 4, 25, &result);
  });
  EXPECT_EQ(result, 4 * 25);
  // One node: no network traffic at all.
  EXPECT_EQ(vm.stats().get(Counter::kMessages), 0u);
}

TEST_P(MonitorProtocolTest, ReentrantEnterIsAllowed) {
  HyperionVM vm(test_config(GetParam(), 2));
  bool inner_ran = false;
  vm.run_main([&](JavaEnv& main) {
    auto cell = main.new_cell<std::int32_t>(0);
    main.monitor_enter(cell.addr);
    main.monitor_enter(cell.addr);  // reentrant
    inner_ran = true;
    main.monitor_exit(cell.addr);
    main.monitor_exit(cell.addr);
  });
  EXPECT_TRUE(inner_ran);
}

TEST_P(MonitorProtocolTest, WaitNotifyHandoff) {
  // Producer/consumer across nodes through a monitor-guarded mailbox.
  HyperionVM vm(test_config(GetParam(), 2));
  std::int64_t got = 0;
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto full = main.new_cell<std::int32_t>(0);
      auto value = main.new_cell<std::int64_t>(0);
      auto consumer = main.start_thread("consumer", [=, &got](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        env.monitor_enter(full.addr);
        while (mem.get(full) == 0) env.wait(full.addr);
        got = mem.get(value);
        env.monitor_exit(full.addr);
      });
      auto producer = main.start_thread("producer", [=](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        env.monitor_enter(full.addr);
        mem.put(value, std::int64_t{4242});
        mem.put(full, std::int32_t{1});
        env.notify(full.addr);
        env.monitor_exit(full.addr);
      });
      main.join(consumer);
      main.join(producer);
    });
  });
  EXPECT_EQ(got, 4242);
}

TEST_P(MonitorProtocolTest, NotifyAllWakesEveryWaiter) {
  HyperionVM vm(test_config(GetParam(), 4));
  int woke = 0;
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto flag = main.new_cell<std::int32_t>(0);
      std::vector<JThread> waiters;
      for (int i = 0; i < 6; ++i) {
        waiters.push_back(main.start_thread(numbered("waiter", i),
                                            [=, &woke](JavaEnv& env) {
                                              Mem<P> mem(env.ctx());
                                              env.monitor_enter(flag.addr);
                                              while (mem.get(flag) == 0) env.wait(flag.addr);
                                              ++woke;
                                              env.monitor_exit(flag.addr);
                                            }));
      }
      auto waker = main.start_thread("waker", [=](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        env.monitor_enter(flag.addr);
        mem.put(flag, std::int32_t{1});
        env.notify_all(flag.addr);
        env.monitor_exit(flag.addr);
      });
      for (auto& w : waiters) main.join(w);
      main.join(waker);
    });
  });
  EXPECT_EQ(woke, 6);
}

TEST_P(MonitorProtocolTest, IndependentMonitorsDoNotInterfere) {
  HyperionVM vm(test_config(GetParam(), 2));
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto a = main.new_cell<std::int64_t>(0);
      auto b = main.new_cell<std::int64_t>(0);
      auto t1 = main.start_thread("t1", [=](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        for (int i = 0; i < 10; ++i) {
          env.synchronized(a.addr, [&] { mem.put(a, mem.get(a) + 1); });
        }
      });
      auto t2 = main.start_thread("t2", [=](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        for (int i = 0; i < 10; ++i) {
          env.synchronized(b.addr, [&] { mem.put(b, mem.get(b) + 1); });
        }
      });
      main.join(t1);
      main.join(t2);
      Mem<P> mem(main.ctx());
      EXPECT_EQ(mem.get(a), 10);
      EXPECT_EQ(mem.get(b), 10);
    });
  });
}

TEST(MonitorDeath, ExitWithoutEnterAborts) {
  HyperionVM vm(test_config(dsm::ProtocolKind::kJavaPf, 1));
  EXPECT_DEATH(vm.run_main([](JavaEnv& main) {
                 auto cell = main.new_cell<std::int32_t>(0);
                 main.monitor_exit(cell.addr);
               }),
               "does not own");
}

TEST(MonitorDeath, WaitWithoutHoldingAborts) {
  HyperionVM vm(test_config(dsm::ProtocolKind::kJavaPf, 1));
  EXPECT_DEATH(vm.run_main([](JavaEnv& main) {
                 auto cell = main.new_cell<std::int32_t>(0);
                 main.wait(cell.addr);
               }),
               "without owning");
}

TEST(MonitorDeath, NotifyWithoutHoldingAborts) {
  HyperionVM vm(test_config(dsm::ProtocolKind::kJavaPf, 1));
  EXPECT_DEATH(vm.run_main([](JavaEnv& main) {
                 auto cell = main.new_cell<std::int32_t>(0);
                 main.notify(cell.addr);
               }),
               "without owning");
}

}  // namespace
}  // namespace hyp::hyperion
