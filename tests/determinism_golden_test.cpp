// Determinism golden test: the bit-identical-simulation contract.
//
// The engine promises that a simulation is a pure function of its inputs, so
// host-side performance work (event pools, presence tables, word-wise diffs,
// buffer recycling — see docs/PERFORMANCE.md) must not change ANY simulated
// quantity. This test pins Jacobi + ASP under both protocols x {1,2,4} nodes
// to recorded goldens: result bits, virtual time, engine event/context-switch
// tallies and every nonzero stat counter must match EXACTLY.
//
// Re-recording (only legitimate after an intentional *semantic* change, e.g.
// a wire-format fix — say why in the commit message):
//   HYP_UPDATE_GOLDENS=1 ./determinism_tests
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

#ifndef HYP_GOLDEN_FILE
#error "HYP_GOLDEN_FILE must point at the recorded goldens"
#endif

struct ConfigPoint {
  const char* app;
  dsm::ProtocolKind protocol;
  int nodes;
};

std::vector<ConfigPoint> config_points() {
  std::vector<ConfigPoint> pts;
  for (const char* app : {"jacobi", "asp"}) {
    for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
      for (int nodes : {1, 2, 4}) pts.push_back({app, kind, nodes});
    }
  }
  return pts;
}

RunResult run_point(const ConfigPoint& pt) {
  const auto cfg =
      make_config("myri200", pt.protocol, pt.nodes, std::size_t{64} << 20);
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

// One golden line:
//   <app> <protocol> n<k> value_bits=<u64> elapsed=<u64> events=<u64>
//   switches=<u64> <counter>=<u64>...
std::string golden_line(const ConfigPoint& pt, const RunResult& r) {
  std::uint64_t value_bits = 0;
  static_assert(sizeof(value_bits) == sizeof(r.value));
  std::memcpy(&value_bits, &r.value, sizeof(value_bits));
  std::ostringstream os;
  os << pt.app << ' ' << dsm::protocol_name(pt.protocol) << " n" << pt.nodes
     << " value_bits=" << value_bits << " elapsed=" << r.elapsed
     << " events=" << r.events_processed << " switches=" << r.context_switches;
  for (const auto& [name, v] : r.stats.nonzero()) os << ' ' << name << '=' << v;
  return os.str();
}

TEST(DeterminismGolden, JacobiAndAspBitIdentical) {
  std::vector<std::string> lines;
  for (const auto& pt : config_points()) lines.push_back(golden_line(pt, run_point(pt)));
  // Key = first three tokens (app, protocol, node count).
  expect_golden(HYP_GOLDEN_FILE,
                "# Determinism goldens: jacobi(n=40,steps=6) + asp(n=40) on\n"
                "# myri200, both protocols x {1,2,4} nodes. Regenerate with\n"
                "# HYP_UPDATE_GOLDENS=1 ./determinism_tests -- and justify the\n"
                "# semantic change in the commit message.\n",
                lines, 3);
}

// The schedule itself must also be reproducible within one binary run —
// protects against accidental host-address-dependent ordering (e.g. pointer
// keyed maps) sneaking into the hot paths.
TEST(DeterminismGolden, BackToBackRunsIdentical) {
  const ConfigPoint pt{"asp", dsm::ProtocolKind::kJavaPf, 4};
  const RunResult a = run_point(pt);
  const RunResult b = run_point(pt);
  EXPECT_EQ(golden_line(pt, a), golden_line(pt, b));
}

}  // namespace
}  // namespace hyp::apps
