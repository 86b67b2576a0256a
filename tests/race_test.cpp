// Vector-clock race detector (docs/RACES.md): config parsing, the core
// happens-before semantics against a bare Cluster, the litmus-program
// verdicts at both granularities, and the attachment discipline (a detector
// must never change a run's answers, schedule, or virtual time).
#include "obs/race.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/litmus.hpp"
#include "cluster/cluster.hpp"
#include "cluster/trace.hpp"

namespace hyp {
namespace {

using obs::RaceConfig;
using obs::RaceDetector;
using obs::RaceGran;
using obs::RaceRecord;

// ---------------------------------------------------------------------------
// --race-detect spec parsing

TEST(RaceConfig, ParsesAndRoundTrips) {
  EXPECT_FALSE(RaceConfig::parse("off").enabled);
  EXPECT_TRUE(RaceConfig::parse("on").enabled);
  EXPECT_EQ(RaceConfig::parse("on").gran, RaceGran::kField);
  EXPECT_EQ(RaceConfig::parse("on,racegran=field").gran, RaceGran::kField);
  EXPECT_EQ(RaceConfig::parse("on,racegran=page").gran, RaceGran::kPage);

  for (const char* spec : {"off", "on,racegran=field", "on,racegran=page"}) {
    EXPECT_EQ(RaceConfig::parse(spec).to_string(), spec);
    // to_string output re-parses to an equal config.
    const RaceConfig c = RaceConfig::parse(spec);
    const RaceConfig back = RaceConfig::parse(c.to_string());
    EXPECT_EQ(back.enabled, c.enabled);
    EXPECT_EQ(back.gran, c.gran);
  }
  EXPECT_EQ(RaceConfig::parse("on").to_string(), "on,racegran=field");
}

TEST(RaceConfigDeathTest, MalformedSpecsExitWithStatus2) {
  EXPECT_EXIT(RaceConfig::parse("junk"), testing::ExitedWithCode(2), "malformed --race-detect");
  EXPECT_EXIT(RaceConfig::parse(""), testing::ExitedWithCode(2), "malformed --race-detect");
  EXPECT_EXIT(RaceConfig::parse("on,on"), testing::ExitedWithCode(2), "duplicate");
  EXPECT_EXIT(RaceConfig::parse("racegran=field"), testing::ExitedWithCode(2),
              "malformed --race-detect");
  EXPECT_EXIT(RaceConfig::parse("on,racegran=cacheline"), testing::ExitedWithCode(2),
              "racegran");
  EXPECT_EXIT(RaceConfig::parse("on,"), testing::ExitedWithCode(2), "empty token");
}

// ---------------------------------------------------------------------------
// Core happens-before semantics, driven directly against a bare cluster.

cluster::ClusterParams tiny_params() {
  cluster::ClusterParams p;
  p.name = "test";
  p.default_nodes = 2;
  p.net.latency = 10 * kMicrosecond;
  p.net.bandwidth_bytes_per_sec = 100e6;
  p.net.send_overhead = 1 * kMicrosecond;
  p.net.recv_overhead = 2 * kMicrosecond;
  p.cpu.hz = 100e6;
  return p;
}

class RaceCoreTest : public testing::Test {
 protected:
  RaceCoreTest() : cluster_(tiny_params(), 2), det_(RaceConfig{true, RaceGran::kField}) {
    det_.begin_run(&cluster_, /*page_shift=*/12);
    det_.register_thread(1, 0);
    det_.register_thread(2, 1);
  }
  cluster::Cluster cluster_;
  RaceDetector det_;
};

TEST_F(RaceCoreTest, UnorderedWritesConflict) {
  det_.on_write(1, 0x100, 4);
  det_.on_write(2, 0x100, 4);
  ASSERT_EQ(det_.races(), 1u);
  EXPECT_EQ(det_.race_records()[0].kind, RaceRecord::Kind::kWriteWrite);
  EXPECT_EQ(det_.race_records()[0].tid_prev, 1u);
  EXPECT_EQ(det_.race_records()[0].tid_cur, 2u);
}

TEST_F(RaceCoreTest, UnorderedReadAfterWriteConflicts) {
  det_.on_write(1, 0x100, 4);
  det_.on_read(2, 0x100, 4);
  ASSERT_EQ(det_.races(), 1u);
  EXPECT_EQ(det_.race_records()[0].kind, RaceRecord::Kind::kWriteRead);
}

TEST_F(RaceCoreTest, UnorderedWriteAfterReadConflicts) {
  det_.on_read(1, 0x100, 4);
  det_.on_write(2, 0x100, 4);
  ASSERT_EQ(det_.races(), 1u);
  EXPECT_EQ(det_.race_records()[0].kind, RaceRecord::Kind::kReadWrite);
}

TEST_F(RaceCoreTest, LockOrderingSuppressesTheConflict) {
  det_.lock_acquire(1, 0xA0);
  det_.on_write(1, 0x100, 4);
  det_.lock_release(1, 0xA0);
  det_.lock_acquire(2, 0xA0);  // joins T1's release clock
  det_.on_write(2, 0x100, 4);
  det_.lock_release(2, 0xA0);
  EXPECT_EQ(det_.races(), 0u);
}

TEST_F(RaceCoreTest, DistinctLocksDoNotOrder) {
  det_.lock_acquire(1, 0xA0);
  det_.on_write(1, 0x100, 4);
  det_.lock_release(1, 0xA0);
  det_.lock_acquire(2, 0xB0);  // a different monitor: no edge
  det_.on_write(2, 0x100, 4);
  det_.lock_release(2, 0xB0);
  EXPECT_EQ(det_.races(), 1u);
}

TEST_F(RaceCoreTest, ForkAndJoinEdgesOrder) {
  det_.on_write(1, 0x100, 4);
  const std::uint64_t token = det_.prepare_fork(1);
  det_.adopt_fork(token, 2);
  det_.on_write(2, 0x100, 4);  // ordered by the fork edge
  det_.thread_exit(token, 2);
  det_.join(1, token);
  det_.on_write(1, 0x100, 4);  // ordered by the join edge
  EXPECT_EQ(det_.races(), 0u);
}

TEST_F(RaceCoreTest, SameThreadNeverConflictsAndDedupHolds) {
  det_.on_write(1, 0x100, 4);
  det_.on_write(1, 0x100, 4);
  EXPECT_EQ(det_.races(), 0u);
  // The same unordered pair on the same cell reports exactly once.
  det_.on_write(2, 0x100, 4);
  det_.on_write(2, 0x100, 4);
  det_.on_write(1, 0x100, 4);
  EXPECT_EQ(det_.races(), 2u);  // WW(1,2) and WW(2,1), each deduplicated
}

TEST_F(RaceCoreTest, BenignRangeIsTalliedNotReported) {
  det_.mark_benign(0x100, 0x104);
  det_.on_write(1, 0x100, 4);
  det_.on_write(2, 0x100, 4);
  EXPECT_EQ(det_.races(), 0u);
  EXPECT_EQ(det_.benign_suppressed(), 1u);
  det_.on_write(2, 0x200, 4);  // outside the range: reported
  det_.on_write(1, 0x200, 4);
  EXPECT_EQ(det_.races(), 1u);
}

TEST(RaceGranTest, PageGranularityMergesNeighbours) {
  cluster::Cluster cluster(tiny_params(), 2);
  RaceDetector field(RaceConfig{true, RaceGran::kField});
  RaceDetector page(RaceConfig{true, RaceGran::kPage});
  for (RaceDetector* det : {&field, &page}) {
    det->begin_run(&cluster, /*page_shift=*/12);
    det->register_thread(1, 0);
    det->register_thread(2, 1);
    det->on_write(1, 0x100, 4);
    det->on_write(2, 0x104, 4);  // a different field on the same page
  }
  EXPECT_EQ(field.races(), 0u);  // field granularity: distinct cells
  EXPECT_EQ(page.races(), 1u);   // page granularity: false sharing flagged
}

TEST_F(RaceCoreTest, MessageDeliveryIsNotAnOrderingEdge) {
  det_.on_write(1, 0x100, 4);
  // A DSM message from T1's node to T2's node is protocol traffic, not
  // program synchronization: it must only feed the piggyback tallies.
  det_.on_message(0, 1, /*service=*/3, /*bytes=*/64);
  det_.on_write(2, 0x100, 4);
  EXPECT_EQ(det_.races(), 1u);
  EXPECT_EQ(det_.clock_msgs(), 1u);
  EXPECT_GT(det_.clock_bytes(), 0u);
}

TEST_F(RaceCoreTest, ReportAttributesAllocationSites) {
  det_.note_alloc(0, 0x1000, 64);
  det_.note_alloc(1, 0x1040, 64);
  det_.on_write(1, 0x1048, 8);
  det_.on_write(2, 0x1048, 8);
  std::ostringstream os;
  det_.write_report(os);
  EXPECT_NE(os.str().find("alloc #1+0x8 home n1"), std::string::npos);
  EXPECT_NE(os.str().find("write-write"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Litmus-program verdicts (the full programs, through the VM).

apps::RunResult run_litmus(const std::string& name, RaceDetector* det,
                           cluster::TraceLog* trace = nullptr) {
  apps::VmConfig cfg = apps::make_config("myri200", dsm::ProtocolKind::kJavaPf, 4);
  cfg.race = det;
  cfg.trace = trace;
  return apps::litmus_run(cfg, name, apps::LitmusParams{});
}

TEST(RaceLitmus, VerdictsHoldAtBothGranularities) {
  for (const RaceGran gran : {RaceGran::kField, RaceGran::kPage}) {
    for (const auto& prog : apps::litmus_programs()) {
      RaceDetector det(RaceConfig{true, gran});
      run_litmus(prog.name, &det);
      if (prog.racy) {
        EXPECT_GT(det.races(), 0u) << prog.name << " gran " << obs::race_gran_name(gran);
      } else {
        EXPECT_EQ(det.races(), 0u) << prog.name << " gran " << obs::race_gran_name(gran);
      }
      EXPECT_GT(det.accesses_checked(), 0u) << prog.name;
    }
  }
}

TEST(RaceLitmus, DetectorDoesNotPerturbTheRun) {
  for (const auto& prog : apps::litmus_programs()) {
    const apps::RunResult bare = run_litmus(prog.name, nullptr);
    RaceDetector det(RaceConfig{true, RaceGran::kField});
    const apps::RunResult observed = run_litmus(prog.name, &det);
    EXPECT_EQ(bare.elapsed, observed.elapsed) << prog.name;
    EXPECT_EQ(bare.value, observed.value) << prog.name;
    EXPECT_EQ(bare.events_processed, observed.events_processed) << prog.name;
    EXPECT_EQ(bare.context_switches, observed.context_switches) << prog.name;
  }
}

TEST(RaceLitmus, SameSeedReportsAreByteIdentical) {
  auto report = [](RaceGran gran) {
    RaceDetector det(RaceConfig{true, gran});
    run_litmus("unsync_counter", &det);
    std::ostringstream os;
    det.write_report(os);
    return os.str();
  };
  EXPECT_EQ(report(RaceGran::kField), report(RaceGran::kField));
  EXPECT_EQ(report(RaceGran::kPage), report(RaceGran::kPage));
  EXPECT_NE(report(RaceGran::kField).find("races:"), std::string::npos);
}

TEST(RaceLitmus, RacesAppearInTheTrace) {
  RaceDetector det(RaceConfig{true, RaceGran::kField});
  cluster::TraceLog trace(1 << 16);
  run_litmus("unsync_counter", &det, &trace);
  std::uint64_t race_events = 0;
  for (const auto& ev : trace.events()) {
    if (ev.kind == cluster::TraceKind::kRaceDetected) ++race_events;
  }
  EXPECT_EQ(race_events, det.races());
  EXPECT_GT(race_events, 0u);
}

TEST(RaceLitmus, CleanProgramsStillCountPiggybackCost) {
  // The zero-race oracle is only meaningful if the detector was really
  // attached: a multi-node synchronized program must show checked accesses
  // and modeled clock piggyback traffic even when no race exists.
  RaceDetector det(RaceConfig{true, RaceGran::kField});
  run_litmus("sync_counter", &det);
  EXPECT_EQ(det.races(), 0u);
  EXPECT_GT(det.accesses_checked(), 0u);
  EXPECT_GT(det.clock_msgs(), 0u);
  EXPECT_GT(det.clock_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Streaming trace sink (what --trace-out writes through): a capacity-bounded
// log drops; the same log with a sink streams.

TEST(TraceStreaming, SinkDrainsInsteadOfDropping) {
  cluster::TraceLog dropping(16);
  RaceDetector det(RaceConfig{true, RaceGran::kField});
  apps::VmConfig cfg = apps::make_config("myri200", dsm::ProtocolKind::kJavaPf, 4);
  cfg.trace = &dropping;
  apps::litmus_run(cfg, "sync_counter", apps::LitmusParams{});
  EXPECT_GT(dropping.dropped(), 0u);  // capacity 16 cannot hold the run

  cluster::TraceLog streaming(16);
  std::vector<cluster::TraceEvent> collected;
  streaming.set_sink([&](const std::vector<cluster::TraceEvent>& batch) {
    collected.insert(collected.end(), batch.begin(), batch.end());
  });
  apps::VmConfig cfg2 = apps::make_config("myri200", dsm::ProtocolKind::kJavaPf, 4);
  cfg2.trace = &streaming;
  apps::litmus_run(cfg2, "sync_counter", apps::LitmusParams{});
  streaming.flush_sink();
  EXPECT_EQ(streaming.dropped(), 0u);
  // Everything the dropping log saw (and more) reached the sink.
  EXPECT_EQ(collected.size(), dropping.events().size() + dropping.dropped());
}

}  // namespace
}  // namespace hyp
