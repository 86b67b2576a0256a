// The observability record-path allocation contract (docs/OBSERVABILITY.md):
// after init()/construction, record-side calls — histogram record, heat
// bumps, phase adds, trace record (including the at-capacity drop path) —
// must never touch the heap, so observers can sit on simulation hot paths
// without perturbing host performance or (via allocator jitter) tempting
// anyone to make recording conditional.
//
// The counting hook (alloc_hook.hpp) replaces global operator new/delete for
// THIS binary only.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_hook.hpp"
#include "cluster/trace.hpp"
#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "obs/heat.hpp"
#include "obs/phase.hpp"

namespace hyp::obs {
namespace {

TEST(ObsAllocFree, HistogramRecordNeverAllocates) {
  Log2Histogram h;
  const auto before = allocs();
  for (std::uint64_t i = 0; i < 100'000; ++i) h.record(i * 37);
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(h.count(), 100'000u);
}

TEST(ObsAllocFree, StatsHistRecordNeverAllocates) {
  Stats s;
  const auto before = allocs();
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    s.record(Hist::kPageFetchLatency, i);
    s.record(Hist::kMonitorAcquireWait, i * 3);
    s.record(Hist::kUpdatePayloadBytes, i % 4096);
  }
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(ObsAllocFree, HeatRecordNeverAllocatesAfterInit) {
  PageHeatTable heat;
  heat.init(4096, 4096);  // the one allocating call
  const auto before = allocs();
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    heat.record_fetch(i % 4096);
    heat.record_fault(i % 977);
    heat.record_update(i % 4096, 8);
    heat.record_fetch(1 << 20);  // out of range: guarded, still no alloc
  }
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(ObsAllocFree, PhaseAddNeverAllocatesAfterInit) {
  PhaseAccounting acct;
  acct.init(12);
  const auto before = allocs();
  for (std::uint64_t i = 0; i < 100'000; ++i) {
    acct.add(static_cast<int>(i % 12), Phase::kCompute, 5);
    acct.add(static_cast<int>(i % 12), Phase::kBlockedFetch, 2);
  }
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(ObsAllocFree, TraceRecordNeverAllocatesIncludingDropPath) {
  cluster::TraceLog log(/*capacity=*/1024);  // reserves up front
  const auto before = allocs();
  // Fill to capacity, then well past it (the drop path).
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    log.record(i, static_cast<int>(i % 4), cluster::TraceKind::kPageFetch,
               static_cast<std::int64_t>(i), 0);
  }
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(log.events().size(), 1024u);
  EXPECT_EQ(log.dropped(), 10'000u - 1024u);
}

}  // namespace
}  // namespace hyp::obs
