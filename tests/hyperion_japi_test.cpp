// Java API subsystem tests: arraycopy edge cases, barrier edge cases,
// currentTimeMillis.
#include <gtest/gtest.h>

#include "hyperion/japi.hpp"
#include "hyperion/vm.hpp"
#include "test_util.hpp"

namespace hyp::hyperion {
namespace {

VmConfig test_config(dsm::ProtocolKind kind, int nodes) {
  VmConfig cfg;
  cfg.nodes = nodes;
  cfg.protocol = kind;
  cfg.region_bytes = std::size_t{16} << 20;
  return cfg;
}

// --- arraycopy ---------------------------------------------------------------

class JapiProtocolTest : public ::testing::TestWithParam<dsm::ProtocolKind> {};
INSTANTIATE_TEST_SUITE_P(BothProtocols, JapiProtocolTest,
                         ::testing::Values(dsm::ProtocolKind::kJavaIc,
                                           dsm::ProtocolKind::kJavaPf),
                         [](const auto& param_info) { return dsm::protocol_name(param_info.param); });

TEST_P(JapiProtocolTest, ArrayCopyZeroLengthIsANoOp) {
  HyperionVM vm(test_config(GetParam(), 1));
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      Mem<P> mem(main.ctx());
      auto a = main.new_array<std::int32_t>(4);
      auto b = main.new_array<std::int32_t>(4);
      mem.aput(b, 0, std::int32_t{9});
      japi::arraycopy<P>(main, a, 0, b, 0, 0);
      EXPECT_EQ(mem.aget(b, 0), 9);
    });
  });
}

TEST_P(JapiProtocolTest, ArrayCopyAcrossNodes) {
  // Source homed on the main node, destination on a worker's node.
  HyperionVM vm(test_config(GetParam(), 2));
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      Mem<P> mem(main.ctx());
      auto src = main.new_array<std::int64_t>(64);
      for (int i = 0; i < 64; ++i) mem.aput(src, i, static_cast<std::int64_t>(i * 3));
      std::int64_t sum = 0;
      auto t = main.start_thread("copier", [&, src](JavaEnv& env) {
        Mem<P> m(env.ctx());
        auto dst = env.new_array<std::int64_t>(64);
        japi::arraycopy<P>(env, src, 0, dst, 0, 64);
        for (int i = 0; i < 64; ++i) sum += m.aget(dst, i);
      });
      main.join(t);
      EXPECT_EQ(sum, 3 * 63 * 64 / 2);
    });
  });
}

// --- barrier edges ------------------------------------------------------------

TEST_P(JapiProtocolTest, SinglePartyBarrierNeverBlocks) {
  HyperionVM vm(test_config(GetParam(), 1));
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto barrier = japi::JBarrier::create(main, 1);
      for (int i = 0; i < 5; ++i) barrier.template await<P>(main);
      SUCCEED();
    });
  });
}

TEST_P(JapiProtocolTest, BarrierManyGenerationsManyParties) {
  constexpr int kParties = 6;
  constexpr int kRounds = 20;
  HyperionVM vm(test_config(GetParam(), 3));
  int finished = 0;
  dsm::with_policy(GetParam(), [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](JavaEnv& main) {
      auto barrier = japi::JBarrier::create(main, kParties);
      std::vector<JThread> ts;
      for (int w = 0; w < kParties; ++w) {
        ts.push_back(main.start_thread(numbered("p", w), [=, &finished](JavaEnv& env) {
          for (int r = 0; r < kRounds; ++r) {
            env.charge_cycles(static_cast<std::uint64_t>((w + 1) * 100));
            barrier.template await<P>(env);
          }
          ++finished;
        }));
      }
      for (auto& t : ts) main.join(t);
    });
  });
  EXPECT_EQ(finished, kParties);
}

TEST(Japi, CurrentTimeMillisMonotonic) {
  HyperionVM vm(test_config(dsm::ProtocolKind::kJavaPf, 1));
  vm.run_main([&](JavaEnv& main) {
    auto t0 = japi::current_time_millis(main);
    main.ctx().clock.charge(5 * kMillisecond);
    main.ctx().clock.flush();
    auto t1 = japi::current_time_millis(main);
    EXPECT_GE(t1 - t0, 5);
  });
}

}  // namespace
}  // namespace hyp::hyperion
