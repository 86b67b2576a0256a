// Load balancer policies (Table 1's pluggable subsystem).
#include <gtest/gtest.h>

#include "hyperion/japi.hpp"
#include "hyperion/load_balancer.hpp"
#include "hyperion/vm.hpp"

namespace hyp::hyperion {
namespace {

TEST(Balancers, RoundRobinCycles) {
  RoundRobinBalancer rr;
  std::vector<cluster::NodeId> got;
  for (int i = 0; i < 7; ++i) got.push_back(rr.place(i, 3));
  EXPECT_EQ(got, (std::vector<cluster::NodeId>{0, 1, 2, 0, 1, 2, 0}));
}

TEST(Balancers, NamesExposed) {
  EXPECT_STREQ(RoundRobinBalancer{}.name(), "round-robin");
  EXPECT_STREQ(PinnedBalancer{0}.name(), "pinned");
}

TEST(Balancers, VmUsesInstalledPolicy) {
  VmConfig cfg;
  cfg.nodes = 4;
  cfg.protocol = dsm::ProtocolKind::kJavaPf;
  cfg.region_bytes = std::size_t{16} << 20;
  HyperionVM vm(cfg);
  vm.set_balancer(std::make_unique<PinnedBalancer>(2));
  std::vector<NodeId> nodes;
  vm.run_main([&](JavaEnv& main) {
    std::vector<JThread> ts;
    for (int i = 0; i < 8; ++i) {
      ts.push_back(main.start_thread("t", [](JavaEnv&) {}));
      nodes.push_back(ts.back().node());
    }
    for (auto& t : ts) main.join(t);
  });
  EXPECT_EQ(nodes, std::vector<NodeId>(8, 2));
}

TEST(Japi, ThreadSleepAdvancesVirtualTime) {
  VmConfig cfg;
  cfg.nodes = 1;
  cfg.protocol = dsm::ProtocolKind::kJavaPf;
  cfg.region_bytes = std::size_t{16} << 20;
  HyperionVM vm(cfg);
  vm.run_main([&](JavaEnv& main) {
    const Time before = main.now();
    japi::thread_sleep(main, 125);
    EXPECT_GE(main.now() - before, 125 * kMillisecond);
  });
}

TEST(Japi, ThreadSleepIncludesPendingCompute) {
  VmConfig cfg;
  cfg.nodes = 1;
  cfg.protocol = dsm::ProtocolKind::kJavaPf;
  cfg.region_bytes = std::size_t{16} << 20;
  HyperionVM vm(cfg);
  vm.run_main([&](JavaEnv& main) {
    main.charge_cycles(200'000'000);  // 1s at 200 MHz, pending
    const Time before = main.now();
    japi::thread_sleep(main, 1);  // must flush first
    EXPECT_GE(main.now() - before, kSecond);
  });
}

}  // namespace
}  // namespace hyp::hyperion
