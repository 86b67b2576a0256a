// Tests of the native backend: REAL mprotect/SIGSEGV remote-object
// detection, real threads, real monitors. These prove the paper's two
// mechanisms are implementable exactly as described, not merely modeled.
#include "native/native_vm.hpp"

#include <gtest/gtest.h>

#include <atomic>

namespace hyp::native {
namespace {

NativeVm::Config cfg(Protocol p, int nodes) {
  NativeVm::Config c;
  c.protocol = p;
  c.nodes = nodes;
  c.region_bytes = std::size_t{16} << 20;
  return c;
}

class NativeProtocolTest : public ::testing::TestWithParam<Protocol> {};
INSTANTIATE_TEST_SUITE_P(BothProtocols, NativeProtocolTest,
                         ::testing::Values(Protocol::kJavaIc, Protocol::kJavaPf),
                         [](const auto& param_info) {
                           return param_info.param == Protocol::kJavaIc ? "java_ic" : "java_pf";
                         });

TEST_P(NativeProtocolTest, LocalAllocateWriteRead) {
  NativeVm vm(cfg(GetParam(), 2));
  vm.run_main([](NativeEnv& env) {
    const Gva a = env.new_cell<std::int64_t>(-5);
    EXPECT_EQ(env.get<std::int64_t>(a), -5);
    env.put<std::int64_t>(a, 17);
    EXPECT_EQ(env.get<std::int64_t>(a), 17);
  });
}

TEST_P(NativeProtocolTest, RemoteReadTriggersDetectionAndFetch) {
  NativeVm vm(cfg(GetParam(), 2));
  std::int64_t seen = 0;
  vm.run_main([&](NativeEnv& env) {
    const Gva a = env.new_cell<std::int64_t>(4242);  // homed on node 0
    vm.start_thread([a, &seen](NativeEnv& remote) {
      if (remote.node() != 0) seen = remote.get<std::int64_t>(a);
    });
    vm.start_thread([a, &seen](NativeEnv& remote) {
      if (remote.node() != 0) seen = remote.get<std::int64_t>(a);
    });
    vm.join_all(env);
  });
  EXPECT_EQ(seen, 4242);
  EXPECT_GE(vm.dsm().counter(Counter::kPageFetches), 1u);
  if (GetParam() == Protocol::kJavaPf) {
    // The remote access detection really went through SIGSEGV.
    EXPECT_GE(vm.dsm().counter(Counter::kPageFaults), 1u);
  } else {
    EXPECT_EQ(vm.dsm().counter(Counter::kPageFaults), 0u);
    EXPECT_GT(vm.dsm().counter(Counter::kInlineChecks), 0u);
  }
}

TEST_P(NativeProtocolTest, SynchronizedCounterIsExactAcrossRealThreads) {
  constexpr int kThreads = 4;
  constexpr int kReps = 500;
  NativeVm vm(cfg(GetParam(), 2));
  std::int64_t result = 0;
  vm.run_main([&](NativeEnv& env) {
    const Gva counter = env.new_cell<std::int64_t>(0);
    for (int t = 0; t < kThreads; ++t) {
      vm.start_thread([counter](NativeEnv& worker) {
        for (int i = 0; i < kReps; ++i) {
          worker.synchronized(counter, [&] {
            worker.put<std::int64_t>(counter, worker.get<std::int64_t>(counter) + 1);
          });
        }
      });
    }
    vm.join_all(env);
    result = env.get<std::int64_t>(counter);
  });
  EXPECT_EQ(result, kThreads * kReps);
}

TEST_P(NativeProtocolTest, ReleaseAcquireTransfersModifications) {
  NativeVm vm(cfg(GetParam(), 2));
  std::int64_t observed = -1;
  vm.run_main([&](NativeEnv& env) {
    const Gva flag = env.new_cell<std::int64_t>(0);
    const Gva data = env.new_cell<std::int64_t>(0);
    vm.start_thread([=](NativeEnv& w) {
      w.synchronized(flag, [&] { w.put<std::int64_t>(data, 999); });
    });
    vm.start_thread([=, &observed](NativeEnv& w) {
      // Spin until the writer's release made the value visible at home and
      // our acquire refetched it.
      for (;;) {
        std::int64_t v = 0;
        w.synchronized(flag, [&] { v = w.get<std::int64_t>(data); });
        if (v == 999) {
          observed = v;
          return;
        }
      }
    });
    vm.join_all(env);
  });
  EXPECT_EQ(observed, 999);
}

TEST_P(NativeProtocolTest, WaitNotifyAcrossNodes) {
  NativeVm vm(cfg(GetParam(), 2));
  std::int64_t got = 0;
  vm.run_main([&](NativeEnv& env) {
    const Gva box = env.new_cell<std::int64_t>(0);
    vm.start_thread([=, &got](NativeEnv& consumer) {
      consumer.monitor_enter(box);
      while (consumer.get<std::int64_t>(box) == 0) consumer.wait(box);
      got = consumer.get<std::int64_t>(box);
      consumer.monitor_exit(box);
    });
    vm.start_thread([=](NativeEnv& producer) {
      producer.monitor_enter(box);
      producer.put<std::int64_t>(box, 31415);
      producer.notify_all(box);
      producer.monitor_exit(box);
    });
    vm.join_all(env);
  });
  EXPECT_EQ(got, 31415);
}

TEST_P(NativeProtocolTest, StaleCacheUntilAcquire) {
  NativeVm vm(cfg(GetParam(), 2));
  vm.run_main([&](NativeEnv& env) {
    const Gva a = env.new_cell<std::int64_t>(1);
    vm.start_thread([=, &vm](NativeEnv& remote) {
      if (remote.node() == 0) return;
      EXPECT_EQ(remote.get<std::int64_t>(a), 1);  // caches the page
      vm.dsm().poke_home<std::int64_t>(a, 2);     // home changes behind us
      EXPECT_EQ(remote.get<std::int64_t>(a), 1);  // still the cached copy
      vm.dsm().invalidate_cache(remote.ctx());
      EXPECT_EQ(remote.get<std::int64_t>(a), 2);  // refetched
    });
    vm.join_all(env);
  });
}

TEST_P(NativeProtocolTest, DisjointFieldWritersDoNotClobber) {
  NativeVm vm(cfg(GetParam(), 3));
  vm.run_main([&](NativeEnv& env) {
    // Two fields of the same page, homed on node 2; the round-robin places
    // the writers on nodes 0 and 1, so both modify a *remote* replica.
    const Gva a = vm.dsm().alloc(2, 8);
    const Gva b = vm.dsm().alloc(2, 8);
    ASSERT_EQ(vm.dsm().layout().page_of(a), vm.dsm().layout().page_of(b));
    vm.start_thread([=, &vm](NativeEnv& w) {
      w.put<std::int64_t>(a, 111);
      vm.dsm().update_main_memory(w.ctx());
    });
    vm.start_thread([=, &vm](NativeEnv& w) {
      w.put<std::int64_t>(b, 222);
      vm.dsm().update_main_memory(w.ctx());
    });
    vm.join_all(env);
    EXPECT_EQ(vm.dsm().read_home<std::int64_t>(a), 111);
    EXPECT_EQ(vm.dsm().read_home<std::int64_t>(b), 222);
  });
}

TEST(NativePf, SecondAccessDoesNotFaultAgain) {
  NativeVm vm(cfg(Protocol::kJavaPf, 2));
  vm.run_main([&](NativeEnv& env) {
    const Gva a = env.new_cell<std::int64_t>(7);
    vm.start_thread([=, &vm](NativeEnv& remote) {
      if (remote.node() == 0) return;
      EXPECT_EQ(remote.get<std::int64_t>(a), 7);
      const auto faults = vm.dsm().counter(Counter::kPageFaults);
      EXPECT_EQ(remote.get<std::int64_t>(a), 7);
      EXPECT_EQ(remote.get<std::int64_t>(a + 8), 0);  // same page: no new fault
      EXPECT_EQ(vm.dsm().counter(Counter::kPageFaults), faults);
    });
    vm.join_all(env);
  });
}

TEST(NativePf, InvalidationReprotectsSoNextAccessFaults) {
  NativeVm vm(cfg(Protocol::kJavaPf, 2));
  vm.run_main([&](NativeEnv& env) {
    const Gva a = env.new_cell<std::int64_t>(7);
    vm.start_thread([=, &vm](NativeEnv& remote) {
      if (remote.node() == 0) return;
      EXPECT_EQ(remote.get<std::int64_t>(a), 7);
      const auto faults_before = vm.dsm().counter(Counter::kPageFaults);
      vm.dsm().invalidate_cache(remote.ctx());
      EXPECT_EQ(remote.get<std::int64_t>(a), 7);  // faults again
      EXPECT_GT(vm.dsm().counter(Counter::kPageFaults), faults_before);
    });
    vm.join_all(env);
  });
}

TEST(NativeIc, NoProtectionEverNoFaults) {
  NativeVm vm(cfg(Protocol::kJavaIc, 2));
  vm.run_main([&](NativeEnv& env) {
    const Gva a = env.new_cell<std::int64_t>(3);
    vm.start_thread([=, &vm](NativeEnv& remote) {
      if (remote.node() == 0) return;
      EXPECT_EQ(remote.get<std::int64_t>(a), 3);
      vm.dsm().invalidate_cache(remote.ctx());
      EXPECT_EQ(remote.get<std::int64_t>(a), 3);
    });
    vm.join_all(env);
  });
  EXPECT_EQ(vm.dsm().counter(Counter::kPageFaults), 0u);
  // mprotect is never called by java_ic (§3.2).
  EXPECT_EQ(vm.dsm().counter(Counter::kMprotectCalls), 0u);
}

TEST(NativeIc, WriteLogShipsValuesAtPutTime) {
  NativeVm vm(cfg(Protocol::kJavaIc, 2));
  vm.run_main([&](NativeEnv& env) {
    const Gva a = env.new_cell<std::int64_t>(0);
    vm.start_thread([=, &vm](NativeEnv& remote) {
      if (remote.node() == 0) return;
      remote.put<std::int64_t>(a, 88);
      // Even if the cache is dropped before the flush, the logged value
      // survives (the log captures values, not addresses-to-read-later).
      vm.dsm().invalidate_cache(remote.ctx());
      vm.dsm().update_main_memory(remote.ctx());
      EXPECT_EQ(vm.dsm().read_home<std::int64_t>(a), 88);
    });
    vm.join_all(env);
  });
}

TEST(NativeDsmGeometry, AllocRespectsZones) {
  NativeDsm dsm(4, std::size_t{16} << 20, Protocol::kJavaIc);
  for (int node = 0; node < 4; ++node) {
    const Gva a = dsm.alloc(node, 64);
    EXPECT_EQ(dsm.layout().home_of(a), node);
  }
}

TEST(NativeDsmGeometry, NodeOfAddressResolvesArenas) {
  NativeDsm dsm(3, std::size_t{16} << 20, Protocol::kJavaIc);
  for (int node = 0; node < 3; ++node) {
    EXPECT_EQ(dsm.node_of_address(dsm.arena(node)), node);
    EXPECT_EQ(dsm.node_of_address(dsm.arena(node) + 100), node);
  }
  int dummy;
  EXPECT_EQ(dsm.node_of_address(&dummy), -1);
}

}  // namespace
}  // namespace hyp::native
