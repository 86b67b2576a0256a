// JMM litmus patterns on the cluster JVM.
//
// Deterministic analogues of the classic memory-model tests, phrased the
// way the old JMM (JLS ch.17, the model the paper implements) decides them:
// properly synchronized handoffs must be ordered; unsynchronized reads may
// observe stale node caches — and in this deterministic DSM we can assert
// the staleness *exactly*, not just permit it.
#include <gtest/gtest.h>

#include "hyperion/japi.hpp"
#include "hyperion/vm.hpp"

namespace hyp::hyperion {
namespace {

VmConfig cfg_for(dsm::ProtocolKind kind, int nodes) {
  VmConfig cfg;
  cfg.nodes = nodes;
  cfg.protocol = kind;
  cfg.region_bytes = std::size_t{16} << 20;
  return cfg;
}

class LitmusTest : public ::testing::TestWithParam<dsm::ProtocolKind> {};
INSTANTIATE_TEST_SUITE_P(BothProtocols, LitmusTest,
                         ::testing::Values(dsm::ProtocolKind::kJavaIc,
                                           dsm::ProtocolKind::kJavaPf),
                         [](const auto& param_info) { return dsm::protocol_name(param_info.param); });

TEST_P(LitmusTest, MessagePassingSynchronizedIsOrdered) {
  // MP: w(data)=1; w(flag)=1 || r(flag)==1 -> r(data) must be 1, when both
  // halves synchronize on the flag's monitor.
  HyperionVM vm(cfg_for(GetParam(), 2));
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto data = main.new_cell<std::int64_t>(0);
      auto flag = main.new_cell<std::int64_t>(0);
      int stale_observed = 0;
      auto reader = main.start_thread("reader", [=, &stale_observed](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        for (;;) {
          std::int64_t f = 0, d = 0;
          env.synchronized(flag.addr, [&] {
            f = mem.get(flag);
            d = mem.get(data);
          });
          if (f == 1) {
            if (d != 1) ++stale_observed;  // forbidden outcome
            return;
          }
        }
      });
      auto writer = main.start_thread("writer", [=](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        env.synchronized(flag.addr, [&] {
          mem.put(data, std::int64_t{1});
          mem.put(flag, std::int64_t{1});
        });
      });
      main.join(reader);
      main.join(writer);
      EXPECT_EQ(stale_observed, 0);
    });
  });
}

TEST_P(LitmusTest, MessagePassingUnsynchronizedObservesStaleness) {
  // The same pattern WITHOUT synchronization: the reader's node cache holds
  // both values from before the write; in this deterministic simulation the
  // stale (0,0) view is not merely allowed — it is exactly what happens.
  HyperionVM vm(cfg_for(GetParam(), 3));
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto data = main.new_cell<std::int64_t>(0);
      auto flag = main.new_cell<std::int64_t>(0);
      std::int64_t f_seen = -1, d_seen = -1;
      auto reader = main.start_thread("reader", [=, &f_seen, &d_seen](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        // Off the home node (round-robin would land us on node 0, where the
        // cells live and reads are never stale).
        env.migrate_to(2);
        // Cache both cells cold...
        (void)mem.get(flag);
        (void)mem.get(data);
        // ...give the writer ample time, then read again with NO acquire.
        env.charge_cycles(50'000'000);
        env.ctx().clock.flush();
        f_seen = mem.get(flag);
        d_seen = mem.get(data);
      });
      auto writer = main.start_thread("writer", [=](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        env.synchronized(flag.addr, [&] {
          mem.put(data, std::int64_t{1});
          mem.put(flag, std::int64_t{1});
        });
      });
      main.join(reader);
      main.join(writer);
      // Home copies hold 1; the reader's cached view stayed at 0 — the JMM
      // staleness the paper's whole-cache invalidation exists to bound.
      EXPECT_EQ(f_seen, 0);
      EXPECT_EQ(d_seen, 0);
      Mem<P> mem(main.ctx());
      EXPECT_EQ(mem.get(flag), 1);
    });
  });
}

TEST_P(LitmusTest, StoreBufferingForbiddenUnderMonitors) {
  // SB: x=1; r1=y || y=1; r2=x — (r1,r2)=(0,0) forbidden when each half is
  // one synchronized block on a common monitor.
  HyperionVM vm(cfg_for(GetParam(), 3));
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto x = main.new_cell<std::int64_t>(0);
      auto y = main.new_cell<std::int64_t>(0);
      auto lock = main.new_cell<std::int64_t>(0);
      std::int64_t r1 = -1, r2 = -1;
      auto t1 = main.start_thread("t1", [=, &r1](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        env.synchronized(lock.addr, [&] {
          mem.put(x, std::int64_t{1});
          r1 = mem.get(y);
        });
      });
      auto t2 = main.start_thread("t2", [=, &r2](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        env.synchronized(lock.addr, [&] {
          mem.put(y, std::int64_t{1});
          r2 = mem.get(x);
        });
      });
      main.join(t1);
      main.join(t2);
      EXPECT_FALSE(r1 == 0 && r2 == 0) << "SB relaxed outcome under mutual exclusion";
    });
  });
}

TEST_P(LitmusTest, CoherenceWithinOneSynchronizedBlock) {
  // Two reads of the same variable inside one critical section must agree
  // (no mid-block invalidation may intervene).
  HyperionVM vm(cfg_for(GetParam(), 2));
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto cell = main.new_cell<std::int64_t>(7);
      int disagreements = 0;
      auto reader = main.start_thread("reader", [=, &disagreements](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        for (int i = 0; i < 50; ++i) {
          env.synchronized(cell.addr, [&] {
            const auto first = mem.get(cell);
            const auto second = mem.get(cell);
            if (first != second) ++disagreements;
          });
        }
      });
      auto writer = main.start_thread("writer", [=](JavaEnv& env) {
        Mem<P> mem(env.ctx());
        for (int i = 0; i < 50; ++i) {
          env.synchronized(cell.addr, [&] { mem.put(cell, static_cast<std::int64_t>(i)); });
        }
      });
      main.join(reader);
      main.join(writer);
      EXPECT_EQ(disagreements, 0);
    });
  });
}

}  // namespace
}  // namespace hyp::hyperion
