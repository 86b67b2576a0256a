// Stress tests of the native backend: real threads hammering real
// mprotect/SIGSEGV detection concurrently.
#include <gtest/gtest.h>

#include <atomic>

#include "native/native_vm.hpp"

namespace hyp::native {
namespace {

NativeVm::Config cfg(Protocol p, int nodes) {
  NativeVm::Config c;
  c.protocol = p;
  c.nodes = nodes;
  c.region_bytes = std::size_t{32} << 20;
  return c;
}

class NativeStress : public ::testing::TestWithParam<Protocol> {};
INSTANTIATE_TEST_SUITE_P(BothProtocols, NativeStress,
                         ::testing::Values(Protocol::kJavaIc, Protocol::kJavaPf),
                         [](const auto& param_info) {
                           return param_info.param == Protocol::kJavaIc ? "java_ic" : "java_pf";
                         });

TEST_P(NativeStress, ManyThreadsManyPagesConcurrentFaulting) {
  // 8 real threads stream over 64 remote pages simultaneously: concurrent
  // SIGSEGVs on distinct pages, racing fetches on shared ones.
  static constexpr int kPages = 64;
  static constexpr int kThreads = 8;
  NativeVm vm(cfg(GetParam(), 3));
  std::atomic<std::int64_t> total{0};
  vm.run_main([&](NativeEnv& env) {
    const Gva base = vm.dsm().alloc(0, kPages * 4096, 4096);
    for (int p = 0; p < kPages; ++p) {
      vm.dsm().poke_home<std::int64_t>(base + static_cast<Gva>(p) * 4096, p);
    }
    for (int t = 0; t < kThreads; ++t) {
      vm.start_thread([base, &total](NativeEnv& worker) {
        std::int64_t local = 0;
        for (int p = 0; p < kPages; ++p) {
          local += worker.get<std::int64_t>(base + static_cast<Gva>(p) * 4096);
        }
        total += local;
      });
    }
    vm.join_all(env);
  });
  EXPECT_EQ(total.load(), static_cast<std::int64_t>(kThreads) * kPages * (kPages - 1) / 2);
  if (GetParam() == Protocol::kJavaPf) {
    EXPECT_GE(vm.dsm().counter(Counter::kPageFaults), kPages);
  }
}

TEST_P(NativeStress, RepeatedInvalidationCycles) {
  // Threads alternate: read remote data, get invalidated, read again — the
  // protection flip-flop path under concurrency.
  NativeVm vm(cfg(GetParam(), 2));
  std::atomic<int> mismatches{0};
  vm.run_main([&](NativeEnv& env) {
    const Gva a = vm.dsm().alloc(0, 8);
    vm.dsm().poke_home<std::int64_t>(a, 7);
    for (int t = 0; t < 4; ++t) {
      vm.start_thread([a, &vm, &mismatches](NativeEnv& worker) {
        if (worker.node() == 0) return;  // stay remote
        for (int round = 0; round < 200; ++round) {
          if (worker.get<std::int64_t>(a) != 7) ++mismatches;
          vm.dsm().invalidate_cache(worker.ctx());
        }
      });
    }
    vm.join_all(env);
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_P(NativeStress, MonitorContentionAcrossManyObjects) {
  static constexpr int kObjects = 8;
  static constexpr int kThreads = 6;
  static constexpr int kReps = 200;
  NativeVm vm(cfg(GetParam(), 3));
  std::int64_t totals[kObjects] = {};
  vm.run_main([&](NativeEnv& env) {
    Gva cells[kObjects];
    for (int o = 0; o < kObjects; ++o) cells[o] = env.new_cell<std::int64_t>(0);
    for (int t = 0; t < kThreads; ++t) {
      vm.start_thread([&cells, t](NativeEnv& worker) {
        for (int i = 0; i < kReps; ++i) {
          const Gva obj = cells[(t + i) % kObjects];
          worker.synchronized(obj, [&] {
            worker.put<std::int64_t>(obj, worker.get<std::int64_t>(obj) + 1);
          });
        }
      });
    }
    vm.join_all(env);
    for (int o = 0; o < kObjects; ++o) totals[o] = env.get<std::int64_t>(cells[o]);
  });
  std::int64_t sum = 0;
  for (std::int64_t v : totals) sum += v;
  EXPECT_EQ(sum, static_cast<std::int64_t>(kThreads) * kReps);
}

TEST_P(NativeStress, FlushInvalidateVsConcurrentWriterLosesNoUpdates) {
  // Regression test for the java_pf lost-update window that made
  // MonitorContentionAcrossManyObjects flake: thread A's monitor acquire
  // runs update_main_memory (twin diff) and then invalidate_cache on a page
  // while sibling thread B — inside its own, unrelated critical section —
  // stores to the same page. B's store landed after A's diff pass; the old
  // invalidate then threw away the twin and the page, so B's flush skipped
  // the page and the next fetch re-read stale home bytes.
  //
  // The program below is perfectly synchronized: every thread increments
  // only its OWN cell under its OWN monitor. Cells share one node-0 home
  // page, so the only way to lose an increment is the protocol-level window
  // above. Pre-fix this failed in well under 100 runs; it must now pass
  // 100 consecutive runs (scripts/race_smoke.sh repeats it).
  static constexpr int kThreads = 6;
  static constexpr int kReps = 2000;
  NativeVm vm(cfg(GetParam(), 3));
  std::int64_t finals[kThreads] = {};
  vm.run_main([&](NativeEnv& env) {
    const Gva page = env.alloc_raw(4096, 4096);  // node-0 home, one page
    Gva cells[kThreads];
    for (int t = 0; t < kThreads; ++t) {
      cells[t] = page + static_cast<Gva>(t) * 64;
      vm.dsm().poke_home<std::int64_t>(cells[t], 0);
    }
    for (int t = 0; t < kThreads; ++t) {
      const Gva mine = cells[t];
      vm.start_thread([mine](NativeEnv& worker) {
        for (int i = 0; i < kReps; ++i) {
          worker.synchronized(mine, [&] {
            worker.put<std::int64_t>(mine, worker.get<std::int64_t>(mine) + 1);
          });
        }
      });
    }
    vm.join_all(env);
    for (int t = 0; t < kThreads; ++t) finals[t] = env.get<std::int64_t>(cells[t]);
  });
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(finals[t], kReps) << "thread " << t << " lost increments";
  }
}

TEST_P(NativeStress, WaitNotifyPipelineUnderLoad) {
  // A bounded "queue" of one slot: producers and consumers coordinate
  // entirely through wait/notify on the slot's monitor.
  static constexpr int kItems = 300;
  NativeVm vm(cfg(GetParam(), 2));
  std::int64_t consumed_sum = 0;
  vm.run_main([&](NativeEnv& env) {
    const Gva full = env.new_cell<std::int64_t>(0);
    const Gva value = env.new_cell<std::int64_t>(0);
    vm.start_thread([=](NativeEnv& producer) {
      for (int i = 1; i <= kItems; ++i) {
        producer.monitor_enter(full);
        while (producer.get<std::int64_t>(full) != 0) producer.wait(full);
        producer.put<std::int64_t>(value, i);
        producer.put<std::int64_t>(full, 1);
        producer.notify_all(full);
        producer.monitor_exit(full);
      }
    });
    vm.start_thread([=, &consumed_sum](NativeEnv& consumer) {
      for (int i = 0; i < kItems; ++i) {
        consumer.monitor_enter(full);
        while (consumer.get<std::int64_t>(full) != 1) consumer.wait(full);
        consumed_sum += consumer.get<std::int64_t>(value);
        consumer.put<std::int64_t>(full, 0);
        consumer.notify_all(full);
        consumer.monitor_exit(full);
      }
    });
    vm.join_all(env);
  });
  EXPECT_EQ(consumed_sum, static_cast<std::int64_t>(kItems) * (kItems + 1) / 2);
}

}  // namespace
}  // namespace hyp::native
