// Tests of the protocol event-trace subsystem.
#include "cluster/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "hyperion/vm.hpp"
#include "test_util.hpp"

namespace hyp::cluster {
namespace {

TEST(TraceLog, RecordsAndCounts) {
  TraceLog log;
  log.record(kMicrosecond, 0, TraceKind::kPageFetch, 7, 1);
  log.record(2 * kMicrosecond, 1, TraceKind::kPageFault, 7, 0);
  EXPECT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.count(TraceKind::kPageFetch), 1u);
  EXPECT_EQ(log.count(TraceKind::kPageFault), 1u);
  EXPECT_EQ(log.count(TraceKind::kInvalidate), 0u);
}

TEST(TraceLog, CapacityStopsRecordingAndCountsDrops) {
  TraceLog log(3);
  for (int i = 0; i < 10; ++i) log.record(0, 0, TraceKind::kInvalidate, i, 0);
  EXPECT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.dropped(), 7u);
  EXPECT_EQ(log.events()[0].a, 0);  // earliest events are kept
}

TEST(TraceLog, TextDumpIsReadable) {
  TraceLog log;
  log.record(1500 * kNanosecond, 2, TraceKind::kMonitorEnter, 4096, 3);
  std::ostringstream oss;
  log.write_text(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("monitor_enter"), std::string::npos);
  EXPECT_NE(out.find("n2"), std::string::npos);
  EXPECT_NE(out.find("1.500 us"), std::string::npos);
}

TEST(TraceLog, ClearResets) {
  TraceLog log(2);
  log.record(0, 0, TraceKind::kPageFetch, 0, 0);
  log.record(0, 0, TraceKind::kPageFetch, 0, 0);
  log.record(0, 0, TraceKind::kPageFetch, 0, 0);  // dropped
  log.clear();
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(TraceIntegration, VmRunEmitsProtocolEvents) {
  hyperion::VmConfig cfg;
  cfg.nodes = 2;
  cfg.protocol = dsm::ProtocolKind::kJavaPf;
  cfg.region_bytes = std::size_t{16} << 20;
  hyperion::HyperionVM vm(cfg);
  TraceLog trace;
  vm.cluster().set_trace(&trace);

  vm.run_main([&](hyperion::JavaEnv& main) {
    hyperion::Mem<dsm::PfPolicy> mem(main.ctx());
    auto cell = main.new_cell<std::int64_t>(0);
    auto t = main.start_thread("worker", [cell](hyperion::JavaEnv& env) {
      hyperion::Mem<dsm::PfPolicy> m(env.ctx());
      env.migrate_to(1);  // make the cell remote: accesses must fault
      env.synchronized(cell.addr, [&] { m.put(cell, m.get(cell) + 1); });
    });
    main.join(t);
  });

  EXPECT_GE(trace.count(TraceKind::kThreadStart), 1u);
  EXPECT_GE(trace.count(TraceKind::kMonitorEnter), 1u);
  EXPECT_GE(trace.count(TraceKind::kMonitorExit), 1u);
  EXPECT_GE(trace.count(TraceKind::kPageFault), 1u);   // remote cell access
  EXPECT_GE(trace.count(TraceKind::kPageFetch), 1u);
  EXPECT_GE(trace.count(TraceKind::kThreadMigrate), 1u);

  // Timestamps are monotone (events are recorded in simulation order).
  for (std::size_t i = 1; i < trace.events().size(); ++i) {
    EXPECT_LE(trace.events()[i - 1].at, trace.events()[i].at);
  }
}

TEST(TraceIntegration, TracesAreDeterministic) {
  auto run_once = [] {
    hyperion::VmConfig cfg;
    cfg.nodes = 3;
    cfg.protocol = dsm::ProtocolKind::kJavaIc;
    cfg.region_bytes = std::size_t{16} << 20;
    hyperion::HyperionVM vm(cfg);
    TraceLog trace;
    vm.cluster().set_trace(&trace);
    vm.run_main([&](hyperion::JavaEnv& main) {
      hyperion::Mem<dsm::IcPolicy> mem(main.ctx());
      auto cell = main.new_cell<std::int64_t>(0);
      std::vector<hyperion::JThread> ts;
      for (int w = 0; w < 3; ++w) {
        ts.push_back(main.start_thread(numbered("w", w), [cell](hyperion::JavaEnv& env) {
          hyperion::Mem<dsm::IcPolicy> m(env.ctx());
          for (int i = 0; i < 5; ++i) {
            env.synchronized(cell.addr, [&] { m.put(cell, m.get(cell) + 1); });
          }
        }));
      }
      for (auto& t : ts) main.join(t);
    });
    std::ostringstream oss;
    trace.write_text(oss);
    return oss.str();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(TraceIntegration, NoTraceAttachedIsSilent) {
  hyperion::VmConfig cfg;
  cfg.nodes = 2;
  cfg.protocol = dsm::ProtocolKind::kJavaPf;
  cfg.region_bytes = std::size_t{16} << 20;
  hyperion::HyperionVM vm(cfg);
  // Simply must not crash with the default nullptr trace.
  vm.run_main([&](hyperion::JavaEnv& main) {
    auto cell = main.new_cell<std::int64_t>(0);
    main.synchronized(cell.addr, [] {});
  });
  SUCCEED();
}

}  // namespace
}  // namespace hyp::cluster
