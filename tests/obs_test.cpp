// Tests of the observability layer (src/obs): Perfetto export (pinned to a
// byte-identical golden), log2 histogram bucket edges, page-heat top-N
// ordering, phase accounting, metrics JSON, trace drop accounting — and the
// no-perturbation contract: attaching every observer must not move virtual
// time by a single picosecond.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/jacobi.hpp"
#include "cluster/trace.hpp"
#include "common/histogram.hpp"
#include "obs/heat.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/phase.hpp"

namespace hyp::obs {
namespace {

#ifndef HYP_PERFETTO_GOLDEN_FILE
#error "HYP_PERFETTO_GOLDEN_FILE must point at the recorded golden"
#endif

// ---- histogram bucket edges -------------------------------------------------

TEST(Log2HistogramEdges, ZeroOneAndMaxLandInTheRightBuckets) {
  EXPECT_EQ(Log2Histogram::bucket_of(0), 0);
  EXPECT_EQ(Log2Histogram::bucket_of(1), 1);
  EXPECT_EQ(Log2Histogram::bucket_of(2), 2);
  EXPECT_EQ(Log2Histogram::bucket_of(3), 2);
  EXPECT_EQ(Log2Histogram::bucket_of(4), 3);
  EXPECT_EQ(Log2Histogram::bucket_of(~std::uint64_t{0}), 64);
  EXPECT_EQ(Log2Histogram::bucket_of(std::uint64_t{1} << 63), 64);
  EXPECT_EQ(Log2Histogram::bucket_of((std::uint64_t{1} << 63) - 1), 63);

  Log2Histogram h;
  h.record(0);
  h.record(1);
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(64), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
}

TEST(Log2HistogramEdges, BucketBoundsAreInclusivePowerOfTwoRanges) {
  // Bucket 0 = {0}, bucket k (0 < k < 64) = [2^(k-1), 2^k - 1], bucket 64
  // saturates to [2^63, UINT64_MAX] — both bounds inclusive, so every
  // bucket's bounds are representable and the top bucket really contains
  // record(UINT64_MAX) (the old exclusive contract claimed it did not).
  EXPECT_EQ(Log2Histogram::bucket_lower(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_lower(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_lower(10), 512u);
  EXPECT_EQ(Log2Histogram::bucket_upper(10), 1023u);
  EXPECT_EQ(Log2Histogram::bucket_lower(64), std::uint64_t{1} << 63);
  EXPECT_EQ(Log2Histogram::bucket_upper(64), ~std::uint64_t{0});
  // Every representable value falls inside its own bucket's bounds — now
  // with no bucket-64 carve-out: the inclusive top bound holds everywhere.
  for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
                          std::uint64_t{4096}, ~std::uint64_t{0} - 1, ~std::uint64_t{0}}) {
    const int b = Log2Histogram::bucket_of(v);
    EXPECT_GE(v, Log2Histogram::bucket_lower(b)) << v;
    EXPECT_LE(v, Log2Histogram::bucket_upper(b)) << v;
  }
}

TEST(Log2HistogramEdges, ExactBoundaryValuesLandInsideTheirLabeledBucket) {
  // The satellite's pinned boundary set: 0, 1, 2^k-1, 2^k, UINT64_MAX. Each
  // recorded value's bucket must be labeled with bounds that contain it.
  auto contained = [](std::uint64_t v) {
    Log2Histogram h;
    h.record(v);
    const int b = Log2Histogram::bucket_of(v);
    EXPECT_EQ(h.bucket(b), 1u) << v;
    EXPECT_GE(v, Log2Histogram::bucket_lower(b)) << v;
    EXPECT_LE(v, Log2Histogram::bucket_upper(b)) << v;
  };
  contained(0);
  contained(1);
  for (int k : {1, 2, 10, 31, 32, 63}) {
    contained((std::uint64_t{1} << k) - 1);
    contained(std::uint64_t{1} << k);
  }
  contained(~std::uint64_t{0});
  // Adjacent buckets never overlap and leave no gap: upper(k) + 1 == lower(k+1).
  for (int k = 0; k < 64; ++k) {
    EXPECT_EQ(Log2Histogram::bucket_upper(k) + 1, Log2Histogram::bucket_lower(k + 1)) << k;
  }
}

TEST(Log2HistogramEdges, MergeAggregatesBucketwise) {
  Log2Histogram a, b;
  a.record(1);
  a.record(100);
  b.record(0);
  b.record(1 << 20);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), std::uint64_t{1} << 20);
  EXPECT_EQ(a.bucket(0), 1u);
  EXPECT_EQ(a.bucket(1), 1u);
  EXPECT_EQ(a.bucket(21), 1u);
}

// ---- page heat --------------------------------------------------------------

TEST(PageHeat, TopNOrdersByCoherenceEventsThenBytesThenPage) {
  PageHeatTable heat;
  heat.init(16, 4096);
  // page 3: 5 coherence events; page 7: 5 events but more update bytes;
  // page 1: 2 events; page 9: zero events (must be excluded).
  for (int i = 0; i < 5; ++i) heat.record_fetch(3);
  for (int i = 0; i < 3; ++i) heat.record_fetch(7);
  for (int i = 0; i < 2; ++i) heat.record_fault(7);
  heat.record_update(7, 4096);
  heat.record_fetch(1);
  heat.record_fault(1);

  const auto top = heat.top(10);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].page, 7u);  // tie on events (5) broken by update_bytes
  EXPECT_EQ(top[1].page, 3u);
  EXPECT_EQ(top[2].page, 1u);
  EXPECT_EQ(top[0].fetches, 3u);
  EXPECT_EQ(top[0].faults, 2u);
  EXPECT_EQ(top[0].update_bytes, 4096u);

  // n smaller than the hot set truncates, hottest kept.
  const auto top1 = heat.top(1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].page, 7u);
}

TEST(PageHeat, EqualHeatBreaksTiesByPageAscending) {
  PageHeatTable heat;
  heat.init(8, 4096);
  heat.record_fetch(5);
  heat.record_fetch(2);
  heat.record_fetch(6);
  const auto top = heat.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].page, 2u);
  EXPECT_EQ(top[1].page, 5u);
  EXPECT_EQ(top[2].page, 6u);
}

TEST(PageHeat, OutOfRangePagesAreIgnoredNotFatal) {
  PageHeatTable heat;
  heat.init(4, 4096);
  heat.record_fetch(1000);
  heat.record_fault(1000);
  heat.record_update(1000, 8);
  EXPECT_TRUE(heat.top(4).empty());
}

// Regression: the per-page getters used to index unchecked — a page id from a
// stale report (or one recorded before a region re-init shrank the table)
// read past the arrays. They now mirror the record_* guards and read as 0.
TEST(PageHeat, OutOfRangeGettersReadZero) {
  PageHeatTable heat;
  heat.init(4, 4096);
  heat.record_fetch(2);
  heat.record_fault(2);
  heat.record_update(2, 64);
  EXPECT_EQ(heat.fetches(1000), 0u);
  EXPECT_EQ(heat.faults(1000), 0u);
  EXPECT_EQ(heat.update_bytes(1000), 0u);
  EXPECT_EQ(heat.fetches(2), 1u);

  heat.init(2, 4096);  // re-init shrinks: page 2 is now out of range
  EXPECT_EQ(heat.fetches(2), 0u);
  EXPECT_EQ(heat.faults(2), 0u);
  EXPECT_EQ(heat.update_bytes(2), 0u);
}

// ---- windowed heat (the hybrid protocol's decision signal) ------------------

TEST(WindowedHeat, FoldDecaysByHalfPerElapsedEpoch) {
  WindowedHeat w;
  w.init(8, 4);
  w.slot(2, 3).raw = 16;
  w.note_miss(2, 3, 10);  // folds raw into the window, then counts the miss
  EXPECT_EQ(w.accesses(2, 3), 16u);
  EXPECT_EQ(w.misses(2, 3), 1u);

  // Two epochs later: both window counters halve twice before accumulating.
  w.slot(2, 3).raw = 4;
  w.note_miss(2, 3, 12);
  EXPECT_EQ(w.accesses(2, 3), 16u / 4 + 4u);
  EXPECT_EQ(w.misses(2, 3), 1u);  // 1 >> 2 == 0, then the new miss

  // Same epoch: no decay, raw still folds in.
  w.slot(2, 3).raw = 1;
  w.fold(2, 3, 12);
  EXPECT_EQ(w.accesses(2, 3), 9u);
}

TEST(WindowedHeat, HugeEpochGapsClampAndOutOfRangeIsIgnored) {
  WindowedHeat w;
  w.init(2, 1);
  w.slot(0, 0).raw = 1;
  w.note_miss(0, 0, 1);
  w.note_miss(0, 0, 500);  // gap >> 63 epochs: shift clamps, window zeroes
  EXPECT_EQ(w.accesses(0, 0), 0u);
  EXPECT_EQ(w.misses(0, 0), 1u);

  w.fold(0, 1000, 5);  // out of range: no write, no crash
  w.note_miss(0, 1000, 5);
  EXPECT_EQ(w.accesses(0, 1000), 0u);
  EXPECT_EQ(w.misses(0, 1000), 0u);
}

// Page-major layout: 12 nodes take a stride of 16 slots per page. Every
// (node, page) slot folds, decays and counts on its own — neighbours in one
// page's stride and the last node's slot included.
TEST(WindowedHeat, NodesOfOnePageFoldAndCountIndependently) {
  WindowedHeat w;
  w.init(4, 12);
  EXPECT_EQ(w.node_shift(), 4u);
  EXPECT_EQ(w.byte_shift(), 4u + 5u);
  // The fast path's addressing reaches the same slot as slot(node, page).
  EXPECT_EQ(reinterpret_cast<std::byte*>(w.slots(11)) + (std::size_t{2} << w.byte_shift()),
            reinterpret_cast<std::byte*>(&w.slot(11, 2)));

  w.slot(0, 2).raw = 8;
  w.slot(1, 2).raw = 6;
  w.slot(11, 2).raw = 40;
  w.note_miss(0, 2, 3);
  w.note_miss(1, 2, 3);
  w.note_miss(1, 2, 4);  // node 1 only: its window halves once, node 0's does not
  EXPECT_EQ(w.accesses(0, 2), 8u);
  EXPECT_EQ(w.misses(0, 2), 1u);
  EXPECT_EQ(w.accesses(1, 2), 3u);
  EXPECT_EQ(w.misses(1, 2), 1u);  // 1 >> 1 == 0, then the new miss

  // Node 11's raw tally waited untouched by its neighbours' folds.
  EXPECT_EQ(w.slot(11, 2).raw, 40u);
  EXPECT_EQ(w.accesses(11, 2), 0u);
  w.fold(11, 2, 7);
  EXPECT_EQ(w.accesses(11, 2), 40u);
  EXPECT_EQ(w.misses(11, 2), 0u);
  EXPECT_EQ(w.slot(11, 2).stamp, 7u);

  // Other pages of the same nodes stay fresh.
  for (int n : {0, 1, 11}) {
    for (std::uint64_t p : {1u, 3u}) {
      const WindowedHeat::Slot& s = w.slot(n, p);
      EXPECT_EQ(s.raw | s.acc | s.miss | s.stamp, 0u) << "node " << n << " page " << p;
    }
  }
}

// ---- phase accounting -------------------------------------------------------

TEST(PhaseAccountingTest, PerNodeAndTotalsAccumulate) {
  PhaseAccounting acct;
  acct.init(2);
  acct.add(0, Phase::kCompute, 100);
  acct.add(0, Phase::kCompute, 50);
  acct.add(1, Phase::kBlockedFetch, 7);
  acct.add(1, Phase::kBarrier, 3);
  EXPECT_EQ(acct.get(0, Phase::kCompute), 150u);
  EXPECT_EQ(acct.get(1, Phase::kCompute), 0u);
  EXPECT_EQ(acct.get(1, Phase::kBlockedFetch), 7u);
  EXPECT_EQ(acct.total(Phase::kCompute), 150u);
  EXPECT_EQ(acct.total(Phase::kBarrier), 3u);
  acct.init(2);  // re-init resets
  EXPECT_EQ(acct.total(Phase::kCompute), 0u);
}

// ---- trace drop accounting --------------------------------------------------

TEST(TraceDrops, PerKindDropCountsKeepObservedTotalsHonest) {
  cluster::TraceLog log(/*capacity=*/2);
  log.record(1, 0, cluster::TraceKind::kPageFetch, 1, 0);
  log.record(2, 0, cluster::TraceKind::kPageFault, 2, 0);
  log.record(3, 0, cluster::TraceKind::kPageFault, 3, 0);  // dropped
  log.record(4, 0, cluster::TraceKind::kUpdateSent, 1, 64);  // dropped
  EXPECT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_EQ(log.dropped(cluster::TraceKind::kPageFault), 1u);
  EXPECT_EQ(log.dropped(cluster::TraceKind::kUpdateSent), 1u);
  EXPECT_EQ(log.dropped(cluster::TraceKind::kPageFetch), 0u);
  // count() = retained + dropped, so a saturated trace doesn't skew totals.
  EXPECT_EQ(log.count(cluster::TraceKind::kPageFault), 2u);
  EXPECT_EQ(log.recorded(cluster::TraceKind::kPageFault), 1u);
  log.clear();
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.dropped(cluster::TraceKind::kPageFault), 0u);
}

// ---- the observed run used by the export tests ------------------------------

struct ObservedRun {
  cluster::TraceLog trace{1 << 16};
  PageHeatTable heat;
  PhaseAccounting phases;
  apps::RunResult result;
};

// Tiny 2-node java_pf Jacobi with every observer attached — the workload
// behind the Perfetto golden. Deterministic, so the export is byte-stable.
ObservedRun observed_jacobi() {
  ObservedRun run;
  auto cfg = apps::make_config("myri200", dsm::ProtocolKind::kJavaPf, 2,
                               std::size_t{16} << 20);
  cfg.trace = &run.trace;
  cfg.heat = &run.heat;
  cfg.phases = &run.phases;
  apps::JacobiParams p;
  p.n = 8;
  p.steps = 2;
  run.result = apps::jacobi_parallel(cfg, p);
  return run;
}

TEST(PerfettoExport, GoldenByteIdentical) {
  ObservedRun run = observed_jacobi();
  ASSERT_EQ(run.trace.dropped(), 0u);
  std::ostringstream os;
  write_perfetto_trace(os, run.trace);
  const std::string actual = os.str();

  // Structural invariants first (meaningful failure messages even when the
  // golden is being re-recorded).
  EXPECT_NE(actual.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(actual.find("\"page_fault\""), std::string::npos);
  EXPECT_NE(actual.find("\"update_sent\""), std::string::npos);
  EXPECT_NE(actual.find("\"page_fetch\""), std::string::npos);      // derived slice
  EXPECT_NE(actual.find("\"monitor_acquire\""), std::string::npos);  // derived slice
  EXPECT_NE(actual.find("\"trace_dropped\""), std::string::npos);

  if (std::getenv("HYP_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(HYP_PERFETTO_GOLDEN_FILE, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << HYP_PERFETTO_GOLDEN_FILE;
    out << actual;
    GTEST_SKIP() << "golden re-recorded at " << HYP_PERFETTO_GOLDEN_FILE;
  }

  std::ifstream in(HYP_PERFETTO_GOLDEN_FILE, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden; record with HYP_UPDATE_GOLDENS=1";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(actual, want.str())
      << "Perfetto serialization drifted from tests/goldens/perfetto_golden.json";
}

// The records of an export other than track metadata ("ph":"M"), in order:
// both writers put one JSON object per line in the traceEvents array.
std::vector<std::string> non_metadata_records(const std::string& json) {
  std::vector<std::string> out;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  {", 0) != 0) continue;
    if (line.back() == ',') line.pop_back();
    if (line.find("\"ph\":\"M\"") == std::string::npos) out.push_back(line);
  }
  return out;
}

TEST(PerfettoExport, StreamedAndOneShotExportsCarryTheSameEvents) {
  // The golden's Jacobi run, plus the kinds it lacks: a crash window, an
  // epoch bump and a serve op. The streaming writer gets uneven batches.
  ObservedRun run = observed_jacobi();
  const Time end = run.result.elapsed;
  run.trace.record(end + kMicrosecond, 1, cluster::TraceKind::kNodeCrash,
                   static_cast<std::int64_t>((end + 50 * kMicrosecond) / kMicrosecond), 0);
  run.trace.record(end + 2 * kMicrosecond, 0, cluster::TraceKind::kEpochBump, 1, 1);
  run.trace.record(end + 3 * kMicrosecond, 0, cluster::TraceKind::kServeOp, 7,
                   static_cast<std::int64_t>(kMicrosecond << 1) | 1);
  const std::vector<cluster::TraceEvent>& events = run.trace.events();
  std::ostringstream one_shot;
  write_perfetto_trace(one_shot, run.trace);
  std::ostringstream streamed;
  PerfettoStreamWriter writer(streamed);
  for (std::size_t i = 0; i < events.size(); i += 97) {
    const std::size_t j = std::min(i + 97, events.size());
    writer.consume({events.begin() + static_cast<std::ptrdiff_t>(i),
                    events.begin() + static_cast<std::ptrdiff_t>(j)});
  }
  writer.finish(run.trace);
  EXPECT_EQ(writer.events_written(), events.size());
  const std::vector<std::string> want = non_metadata_records(one_shot.str());
  // Each event's instant, plus the counter sample, the derived slices and
  // the flows.
  EXPECT_GT(want.size(), events.size());
  EXPECT_EQ(non_metadata_records(streamed.str()), want);
}

TEST(MetricsJson, CarriesCountersHistogramsHeatPhasesAndDrops) {
  ObservedRun run = observed_jacobi();
  MetricsPoint mp;
  mp.cluster = "myri200";
  mp.protocol = "java_pf";
  mp.nodes = 2;
  mp.label = "jacobi tiny";
  mp.elapsed = run.result.elapsed;
  mp.value = run.result.value;
  mp.has_value = true;
  mp.stats = run.result.stats;
  fill_heat(mp, run.heat, 4);
  fill_phases(mp, run.phases);
  mp.has_trace = true;
  mp.trace_events = run.trace.events().size();
  mp.trace_dropped = run.trace.dropped();

  std::ostringstream os;
  write_metrics_json(os, "obs_test", {mp});
  const std::string out = os.str();
  EXPECT_NE(out.find("\"schema\":\"hyp-metrics-v1\""), std::string::npos);
  EXPECT_NE(out.find("\"protocol\":\"java_pf\""), std::string::npos);
  EXPECT_NE(out.find("\"page_fetch_latency_ps\""), std::string::npos);
  EXPECT_NE(out.find("\"monitor_acquire_wait_ps\""), std::string::npos);
  EXPECT_NE(out.find("\"page_heat\""), std::string::npos);
  EXPECT_NE(out.find("\"phases_ps\""), std::string::npos);
  EXPECT_NE(out.find("\"trace\":{\"events\":"), std::string::npos);
  EXPECT_NE(out.find("\"dropped\":0"), std::string::npos);
}

// ---- the no-perturbation contract -------------------------------------------

TEST(NoPerturbation, AttachingEveryObserverDoesNotShiftVirtualTime) {
  // Bare run: no observers.
  auto cfg_bare = apps::make_config("myri200", dsm::ProtocolKind::kJavaPf, 2,
                                    std::size_t{16} << 20);
  apps::JacobiParams p;
  p.n = 8;
  p.steps = 2;
  const auto bare = apps::jacobi_parallel(cfg_bare, p);

  // Fully observed run of the identical workload.
  ObservedRun run = observed_jacobi();

  EXPECT_EQ(run.result.elapsed, bare.elapsed)
      << "trace/heat/phase attachment shifted virtual time";
  EXPECT_EQ(run.result.value, bare.value);
  EXPECT_EQ(run.result.events_processed, bare.events_processed);
  EXPECT_EQ(run.result.context_switches, bare.context_switches);
  EXPECT_EQ(run.result.stats.nonzero(), bare.stats.nonzero());

  // The observers actually saw the run (this is not a vacuous pass).
  EXPECT_FALSE(run.trace.events().empty());
  EXPECT_GT(run.trace.count(cluster::TraceKind::kPageFault), 0u);
  EXPECT_FALSE(run.heat.top(1).empty());
  EXPECT_GT(run.phases.total(Phase::kCompute), 0u);
  // Histograms recorded alongside the counters, equal by construction.
  EXPECT_GT(run.result.stats.hist(Hist::kPageFetchLatency).count(), 0u);
}

TEST(NoPerturbation, JavaIcObservedRunAlsoUnshifted) {
  auto bare_cfg = apps::make_config("myri200", dsm::ProtocolKind::kJavaIc, 2,
                                    std::size_t{16} << 20);
  apps::JacobiParams p;
  p.n = 8;
  p.steps = 2;
  const auto bare = apps::jacobi_parallel(bare_cfg, p);

  cluster::TraceLog trace(1 << 16);
  PageHeatTable heat;
  PhaseAccounting phases;
  auto cfg = apps::make_config("myri200", dsm::ProtocolKind::kJavaIc, 2,
                               std::size_t{16} << 20);
  cfg.trace = &trace;
  cfg.heat = &heat;
  cfg.phases = &phases;
  const auto observed = apps::jacobi_parallel(cfg, p);

  EXPECT_EQ(observed.elapsed, bare.elapsed);
  EXPECT_EQ(observed.stats.nonzero(), bare.stats.nonzero());
  // java_ic: no faults, but update traffic lands in the heat table.
  EXPECT_EQ(trace.count(cluster::TraceKind::kPageFault), 0u);
  EXPECT_FALSE(heat.top(1).empty());
}

}  // namespace
}  // namespace hyp::obs
