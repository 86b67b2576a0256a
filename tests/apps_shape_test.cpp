// Shape and statistics-signature tests for the five benchmark programs:
// the *mechanisms* behind the paper's discussion must show in the counters,
// not just in the timings.
#include <gtest/gtest.h>

#include "apps/asp.hpp"
#include "apps/barnes.hpp"
#include "apps/jacobi.hpp"
#include "apps/pi.hpp"
#include "apps/tsp.hpp"

namespace hyp::apps {
namespace {

TEST(AppShapeStats, BarnesFaultsGrowWithNodeCount) {
  // §4.3: "the number of page faults being handled by java_pf (as well as
  // the number of mprotect calls performed) grows significantly" as nodes
  // are added.
  BarnesParams p;
  p.bodies = 512;
  p.steps = 2;
  const auto at2 = barnes_parallel(make_config("myri200", dsm::ProtocolKind::kJavaPf, 2), p);
  const auto at8 = barnes_parallel(make_config("myri200", dsm::ProtocolKind::kJavaPf, 8), p);
  EXPECT_GT(at8.stats.get(Counter::kPageFaults), 2 * at2.stats.get(Counter::kPageFaults));
  EXPECT_GT(at8.stats.get(Counter::kMprotectCalls), 2 * at2.stats.get(Counter::kMprotectCalls));
}

TEST(AppShapeStats, AspChecksAreNodeCountInvariant) {
  // Total in-line checks track total accesses — independent of node count
  // (the work is the same; only its placement changes). Barrier traffic
  // contributes a small node-dependent tail.
  AspParams p;
  p.n = 48;
  const auto at1 = asp_parallel(make_config("myri200", dsm::ProtocolKind::kJavaIc, 1), p);
  const auto at4 = asp_parallel(make_config("myri200", dsm::ProtocolKind::kJavaIc, 4), p);
  const double ratio = static_cast<double>(at4.stats.get(Counter::kInlineChecks)) /
                       static_cast<double>(at1.stats.get(Counter::kInlineChecks));
  EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(AppShapeStats, TspRefetchesCentralStructures) {
  // §4.1: the central queue and bound "must be fetched by threads executing
  // on other nodes" — every pop's monitor entry invalidates the node cache,
  // so fetch counts far exceed the page count of the central data.
  TspParams p;
  p.cities = 8;
  const auto r = tsp_parallel(make_config("myri200", dsm::ProtocolKind::kJavaPf, 4), p);
  // The central data fits in a handful of pages, yet it is fetched over and
  // over (once per post-invalidation touch).
  EXPECT_GT(r.stats.get(Counter::kPageFetches), 100u);
  EXPECT_GT(r.stats.get(Counter::kInvalidations), 100u);
}

TEST(AppShapeStats, JacobiUpdateTrafficMatchesBoundaryExchange) {
  // Each worker ships only its boundary modifications; diff words should be
  // far below total cell updates.
  JacobiParams p;
  p.n = 64;
  p.steps = 6;
  const auto r = jacobi_parallel(make_config("myri200", dsm::ProtocolKind::kJavaPf, 4), p);
  const std::uint64_t total_cell_writes =
      static_cast<std::uint64_t>(p.n - 2) * (p.n - 2) * p.steps;
  EXPECT_LT(r.stats.get(Counter::kDiffWords), total_cell_writes / 2);
  EXPECT_GT(r.stats.get(Counter::kUpdatesSent), 0u);
}

TEST(AppShapeStats, FasterClusterFinishesSooner) {
  // Same program, both presets: sci450 must beat myri200 in absolute time
  // for every app (the paper's figures show disjoint curve families).
  PiParams pi;
  pi.intervals = 100'000;
  EXPECT_LT(pi_parallel(make_config("sci450", dsm::ProtocolKind::kJavaPf, 4), pi).elapsed,
            pi_parallel(make_config("myri200", dsm::ProtocolKind::kJavaPf, 4), pi).elapsed);
  AspParams asp;
  asp.n = 48;
  EXPECT_LT(asp_parallel(make_config("sci450", dsm::ProtocolKind::kJavaPf, 4), asp).elapsed,
            asp_parallel(make_config("myri200", dsm::ProtocolKind::kJavaPf, 4), asp).elapsed);
}

TEST(AppShapeStats, Sci450RunsAreDeterministicToo) {
  AspParams p;
  p.n = 32;
  const auto cfg = make_config("sci450", dsm::ProtocolKind::kJavaIc, 3);
  const auto a = asp_parallel(cfg, p);
  const auto b = asp_parallel(cfg, p);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.stats.nonzero(), b.stats.nonzero());
}

TEST(AppShapeStats, NetworkJitterChangesTimingNotResults) {
  // Failure injection: deterministic per-message jitter shifts the timing
  // but must never change program output — and stays reproducible.
  AspParams p;
  p.n = 48;
  auto cfg = make_config("myri200", dsm::ProtocolKind::kJavaPf, 4);
  const auto quiet = asp_parallel(cfg, p);
  cfg.cluster.fault.reorder_max = 20 * kMicrosecond;
  const auto noisy1 = asp_parallel(cfg, p);
  const auto noisy2 = asp_parallel(cfg, p);
  EXPECT_EQ(quiet.value, noisy1.value);      // same answer
  EXPECT_NE(quiet.elapsed, noisy1.elapsed);  // different timing
  EXPECT_EQ(noisy1.elapsed, noisy2.elapsed); // still deterministic
}

}  // namespace
}  // namespace hyp::apps
