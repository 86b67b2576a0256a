// Hybrid-protocol determinism golden: the adaptive protocol is still a pure
// function of its inputs.
//
// The hybrid protocol adds two online decisions on top of java_ic/java_pf —
// the per-page detection-mode switch and heat-driven home migration — and
// both are driven by integer virtual-time arithmetic only, so the same seed
// must reproduce the same decisions bit for bit. This test pins Jacobi + ASP
// under hybrid x {1,2,4} nodes exactly as determinism_golden_test.cpp does
// for the paper protocols: result bits, virtual time, engine tallies and
// every nonzero counter (including dsm_mode_switches / dsm_home_migrations)
// must match the recorded goldens EXACTLY.
//
// Re-recording (only after an intentional semantic change to the hybrid
// policy — say why in the commit message):
//   HYP_UPDATE_GOLDENS=1 ./determinism_tests --gtest_filter='HybridGolden*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "apps/asp.hpp"
#include "apps/jacobi.hpp"
#include "test_util.hpp"

namespace hyp::apps {
namespace {

#ifndef HYP_HYBRID_GOLDEN_FILE
#error "HYP_HYBRID_GOLDEN_FILE must point at the recorded goldens"
#endif

struct ConfigPoint {
  const char* app;
  int nodes;
};

std::vector<ConfigPoint> config_points() {
  std::vector<ConfigPoint> pts;
  for (const char* app : {"jacobi", "asp"}) {
    for (int nodes : {1, 2, 4}) pts.push_back({app, nodes});
  }
  return pts;
}

RunResult run_point(const ConfigPoint& pt) {
  const auto cfg = make_config("myri200", dsm::ProtocolKind::kHybrid, pt.nodes,
                               std::size_t{64} << 20);
  if (std::strcmp(pt.app, "jacobi") == 0) {
    JacobiParams p;
    p.n = 40;
    p.steps = 6;
    return jacobi_parallel(cfg, p);
  }
  AspParams p;
  p.n = 40;
  return asp_parallel(cfg, p);
}

std::string golden_line(const ConfigPoint& pt, const RunResult& r) {
  std::uint64_t value_bits = 0;
  static_assert(sizeof(value_bits) == sizeof(r.value));
  std::memcpy(&value_bits, &r.value, sizeof(value_bits));
  std::ostringstream os;
  os << pt.app << " hybrid n" << pt.nodes << " value_bits=" << value_bits
     << " elapsed=" << r.elapsed << " events=" << r.events_processed
     << " switches=" << r.context_switches;
  for (const auto& [name, v] : r.stats.nonzero()) os << ' ' << name << '=' << v;
  return os.str();
}

TEST(HybridGolden, JacobiAndAspBitIdentical) {
  std::vector<std::string> lines;
  for (const auto& pt : config_points()) lines.push_back(golden_line(pt, run_point(pt)));
  expect_golden(HYP_HYBRID_GOLDEN_FILE,
                "# Hybrid determinism goldens: jacobi(n=40,steps=6) + asp(n=40) on\n"
                "# myri200, hybrid protocol x {1,2,4} nodes. Regenerate with\n"
                "# HYP_UPDATE_GOLDENS=1 ./determinism_tests -- and justify the\n"
                "# policy change in the commit message.\n",
                lines, 3);
}

// The adaptive decisions must also be reproducible within one process run —
// guards against host-address-dependent state (e.g. pointer-keyed ordering)
// leaking into the mode-switch or migration paths.
TEST(HybridGolden, BackToBackRunsIdentical) {
  const ConfigPoint pt{"asp", 4};
  const RunResult a = run_point(pt);
  const RunResult b = run_point(pt);
  EXPECT_EQ(golden_line(pt, a), golden_line(pt, b));
}

}  // namespace
}  // namespace hyp::apps
