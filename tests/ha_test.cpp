// High-availability subsystem tests (src/ha, docs/RECOVERY.md).
//
// Five layers of contract over a kill-and-recover run:
//   1. detector timing — suspect/confirm latencies follow the FaultProfile's
//      virtual-time constants exactly (trace-event deltas);
//   2. backup promotion — the dead node's home zone moves to its ring
//      successor, the epoch bumps, and shared state homed on the dead node
//      stays readable and exact through the failover;
//   3. monitor-table recovery — synchronized updates against an object homed
//      on the crashed node lose nothing (the lost-update litmus, with the
//      monitor's home failing over mid-run);
//   4. restart/rejoin — the crashed node comes back without home authority
//      and resumes as a cacher;
//   5. determinism — a same-seed kill-and-recover run is byte-identical
//      (tests/goldens/recovery_golden.txt; re-record only after a semantic
//      change, with HYP_UPDATE_GOLDENS=1 ./ha_tests).
//
// The workload: the Java main thread migrates to the to-be-crashed node,
// allocates the shared counter there (allocation home = allocating thread's
// node), migrates back, and then six workers hammer it with synchronized
// increments while the node dies and recovers underneath them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/trace.hpp"
#include "dsm/access.hpp"
#include "ha/ha.hpp"
#include "hyperion/japi.hpp"
#include "hyperion/vm.hpp"
#include "sim/engine.hpp"

namespace hyp::ha {
namespace {

using cluster::TraceEvent;
using cluster::TraceKind;

constexpr cluster::NodeId kCrashNode = 2;
constexpr int kNodes = 4;
constexpr int kWorkers = 6;
constexpr int kIncrements = 40;
constexpr std::int64_t kExpected = std::int64_t{kWorkers} * kIncrements;

struct HaRunResult {
  std::int64_t counter = -1;
  Time elapsed = 0;
  Stats stats;
  std::uint64_t events_processed = 0;
  std::uint64_t context_switches = 0;
  std::vector<TraceEvent> trace;
  // Post-run HA state.
  std::uint64_t epoch = 0;
  std::uint64_t promotions = 0;  // confirmed failures handled
  cluster::NodeId promoted_for = -1;
  cluster::NodeId zone2_home = -1;
  bool backup_is_home = false;   // backup's presence says "home" for the page
  bool crashed_is_home = true;   // crashed node's presence, after rejoin
  bool elected_is_home = false;  // current elected home's presence for the page
  dsm::Gva counter_addr = 0;
};

// One kill-and-recover run of the shared-counter workload. The crash window
// (1ms + 800us) opens while the workers are mid-increment and closes before
// they finish, so the run crosses crash -> suspect -> confirm -> promote ->
// restart -> rejoin in-band.
HaRunResult run_counter_with_crash(dsm::ProtocolKind kind, const std::string& profile) {
  hyperion::VmConfig cfg;
  cfg.cluster = cluster::ClusterParams::myrinet200();
  cfg.cluster.fault = cluster::FaultProfile::parse(profile);
  cfg.nodes = kNodes;
  cfg.protocol = kind;
  cfg.region_bytes = std::size_t{16} << 20;
  cluster::TraceLog trace(1 << 16);
  cfg.trace = &trace;

  hyperion::HyperionVM vm(cfg);
  HaRunResult out;
  dsm::with_policy(kind, [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](hyperion::JavaEnv& main) {
      // Home the shared counter on the node that is about to die.
      main.migrate_to(kCrashNode);
      auto counter = main.new_cell<std::int64_t>(0);
      out.counter_addr = counter.addr;
      main.migrate_to(0);
      std::vector<hyperion::JThread> workers;
      for (int w = 0; w < kWorkers; ++w) {
        workers.push_back(
            main.start_thread("w" + std::to_string(w), [=](hyperion::JavaEnv& env) {
              hyperion::Mem<P> mem(env.ctx());
              for (int i = 0; i < kIncrements; ++i) {
                env.synchronized(counter.addr,
                                 [&] { mem.put(counter, mem.get(counter) + 1); });
              }
            }));
      }
      for (auto& w : workers) main.join(w);
      hyperion::Mem<P> mem(main.ctx());
      out.counter = mem.get(counter);
    });
  });

  out.elapsed = vm.elapsed();
  out.stats = vm.stats();
  out.events_processed = vm.cluster().engine().events_processed();
  out.context_switches = vm.cluster().engine().context_switches();
  out.trace = trace.events();
  EXPECT_NE(vm.ha(), nullptr) << "crash profile must engage the HA subsystem";
  if (vm.ha() == nullptr) return out;
  out.epoch = vm.ha()->epoch();
  out.promotions = vm.ha()->promotions();
  out.promoted_for = vm.ha()->promoted_for();
  out.zone2_home = vm.ha()->home_node(kCrashNode);
  const dsm::PageId page = vm.dsm().layout().page_of(out.counter_addr);
  out.backup_is_home = vm.dsm().node_dsm(vm.ha()->backup_of(kCrashNode)).is_home(page);
  out.crashed_is_home = vm.dsm().node_dsm(kCrashNode).is_home(page);
  out.elected_is_home = vm.dsm().node_dsm(out.zone2_home).is_home(page);
  return out;
}

// First trace event of `kind`; fails the test when absent.
const TraceEvent* find_event(const std::vector<TraceEvent>& events, TraceKind kind) {
  for (const TraceEvent& e : events) {
    if (e.kind == kind) return &e;
  }
  return nullptr;
}

std::uint64_t count_events(const std::vector<TraceEvent>& events, TraceKind kind) {
  std::uint64_t n = 0;
  for (const TraceEvent& e : events) n += e.kind == kind ? 1 : 0;
  return n;
}

constexpr const char* kCrashProfile = "crash2@1ms+800us,seed=7";

// --- 1. detector timing -----------------------------------------------------

TEST(HaDetector, SuspectAndConfirmFollowConfiguredTimeouts) {
  // Explicit tunables so the timing assertions are self-contained.
  HaRunResult r = run_counter_with_crash(
      dsm::ProtocolKind::kJavaPf,
      "crash2@1ms+800us,hb=50us,suspect=200us,confirm=600us,seed=7");
  const TraceEvent* crash = find_event(r.trace, TraceKind::kNodeCrash);
  const TraceEvent* suspected = find_event(r.trace, TraceKind::kHaSuspected);
  const TraceEvent* confirmed = find_event(r.trace, TraceKind::kHaDeadConfirmed);
  ASSERT_NE(crash, nullptr);
  ASSERT_NE(suspected, nullptr);
  ASSERT_NE(confirmed, nullptr);
  EXPECT_EQ(crash->node, kCrashNode);
  EXPECT_EQ(crash->at, 1 * kMillisecond);
  // The watcher is the ring successor. Silence is measured from the last
  // heartbeat *before* the crash (up to hb_interval earlier than the crash
  // itself) and verdicts land on the tick grid (up to hb_interval later), so
  // each crash-relative latency is its timeout +/- one hb_interval.
  EXPECT_EQ(suspected->node, kCrashNode + 1);
  EXPECT_EQ(suspected->a, kCrashNode);
  EXPECT_GE(suspected->at - crash->at, 150 * kMicrosecond);
  EXPECT_LE(suspected->at - crash->at, 250 * kMicrosecond);
  EXPECT_EQ(confirmed->node, kCrashNode + 1);
  EXPECT_EQ(confirmed->a, kCrashNode);
  EXPECT_GE(confirmed->at - crash->at, 550 * kMicrosecond);
  EXPECT_LE(confirmed->at - crash->at, 650 * kMicrosecond);
  // Exactly one failure, handled once.
  EXPECT_EQ(count_events(r.trace, TraceKind::kHomePromoted), 1u);
  EXPECT_EQ(count_events(r.trace, TraceKind::kEpochBump), 1u);
  // Heartbeats flowed the whole run.
  EXPECT_GT(r.stats.get(Counter::kHaHeartbeats), 0u);
}

TEST(HaDetector, CoalescedSweepRecoversLikePerNodeChains) {
  // hbcoalesce=1 forces the single self-chaining sweep (the >= 64-node
  // detector, docs/SCALING.md); hbcoalesce=0 forces the historical per-node
  // heartbeat chains. Event counts differ by design, but the recovery
  // outcome must not.
  const std::string base = "crash2@1ms+800us,seed=7,hbcoalesce=";
  HaRunResult chains = run_counter_with_crash(dsm::ProtocolKind::kJavaPf, base + "0");
  HaRunResult swept = run_counter_with_crash(dsm::ProtocolKind::kJavaPf, base + "1");
  EXPECT_EQ(chains.counter, kExpected);
  EXPECT_EQ(swept.counter, kExpected);
  EXPECT_EQ(swept.promotions, chains.promotions);
  EXPECT_EQ(swept.promoted_for, chains.promoted_for);
  EXPECT_EQ(swept.epoch, chains.epoch);
  EXPECT_EQ(swept.zone2_home, chains.zone2_home);
  EXPECT_GT(chains.stats.get(Counter::kHaHeartbeats), 0u);
  EXPECT_GT(swept.stats.get(Counter::kHaHeartbeats), 0u);
}

// --- 2+3. promotion, epoch invalidation, monitor-table recovery -------------

TEST(HaRecovery, CounterHomedOnCrashedNodeIsExactUnderBothProtocols) {
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    HaRunResult r = run_counter_with_crash(kind, kCrashProfile);
    // The lost-update litmus across a home failure: nothing lost, nothing
    // double-applied (monitor op ids absorb replayed grant requests).
    EXPECT_EQ(r.counter, kExpected) << dsm::protocol_name(kind);
    // The failure was real and handled.
    EXPECT_EQ(r.promoted_for, kCrashNode) << dsm::protocol_name(kind);
    EXPECT_EQ(r.epoch, 1u) << dsm::protocol_name(kind);
    EXPECT_EQ(r.stats.get(Counter::kHaPromotions), 1u) << dsm::protocol_name(kind);
    // At least one blocked caller re-routed to the promoted home.
    EXPECT_GT(r.stats.get(Counter::kHaReroutes), 0u) << dsm::protocol_name(kind);
    // Recovery latency histogram: exactly one promotion, between the confirm
    // timeout (minus one heartbeat of pre-crash silence) and the crash
    // duration.
    const auto& h = r.stats.hist(Hist::kRecoveryLatency);
    ASSERT_EQ(h.count(), 1u) << dsm::protocol_name(kind);
    EXPECT_GE(h.min(), 550 * kMicrosecond) << dsm::protocol_name(kind);
    EXPECT_LE(h.max(), 800 * kMicrosecond) << dsm::protocol_name(kind);
  }
}

// --- 4. restart / rejoin ----------------------------------------------------

TEST(HaRecovery, RestartedNodeRejoinsAsCacherHomeStaysAtBackup) {
  HaRunResult r = run_counter_with_crash(dsm::ProtocolKind::kJavaPf, kCrashProfile);
  // Routing: the dead zone moved to the ring successor and stays there.
  EXPECT_EQ(r.zone2_home, kCrashNode + 1);
  // Presence: the backup holds the zone's pages as home; the restarted node
  // demoted its copies (it may re-cache them, but without home authority).
  EXPECT_TRUE(r.backup_is_home);
  EXPECT_FALSE(r.crashed_is_home);
  // The rejoin actually happened in-band (the run outlived the window).
  EXPECT_EQ(count_events(r.trace, TraceKind::kNodeRestart), 1u);
  EXPECT_EQ(count_events(r.trace, TraceKind::kHaRejoined), 1u);
  const TraceEvent* rejoined = find_event(r.trace, TraceKind::kHaRejoined);
  ASSERT_NE(rejoined, nullptr);
  EXPECT_EQ(rejoined->node, kCrashNode);
  EXPECT_EQ(rejoined->at, 1 * kMillisecond + 800 * kMicrosecond);
  EXPECT_GT(r.elapsed, rejoined->at);  // workers finished after the rejoin
}

// --- 5. multi-failure matrix (K-replica chain backups) -----------------------
//
// With replicas=K every home's state is mirrored by its K ring successors in
// chain order, and a run tolerates any crash schedule in which no zone loses
// all K+1 copies at once (docs/RECOVERY.md).

// Two sequential failures: node 2 dies first (counter zone moves to its first
// chain member, node 3), then node 3 — holding both its own zone and the
// adopted zone 2 — dies too, pushing everything to node 0.
constexpr const char* kMultiCrashProfile =
    "replicas=2,crash2@1ms+800us,crash3@8ms+2ms,seed=7";

TEST(HaMultiFailure, TwoSequentialCrashesWithTwoReplicasRecoverExactly) {
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    HaRunResult r = run_counter_with_crash(kind, kMultiCrashProfile);
    // The lost-update litmus across TWO home failures of the same zone.
    EXPECT_EQ(r.counter, kExpected) << dsm::protocol_name(kind);
    // Two confirmed deaths, two epoch bumps, last one for node 3.
    EXPECT_EQ(r.promotions, 2u) << dsm::protocol_name(kind);
    EXPECT_EQ(r.epoch, 2u) << dsm::protocol_name(kind);
    EXPECT_EQ(r.promoted_for, 3) << dsm::protocol_name(kind);
    // Zone 2 hopped 2 -> 3 -> 0 (node 0 is the first live member of the dead
    // home 3's chain), and authority followed.
    EXPECT_EQ(r.zone2_home, 0) << dsm::protocol_name(kind);
    EXPECT_TRUE(r.elected_is_home) << dsm::protocol_name(kind);
    EXPECT_FALSE(r.crashed_is_home) << dsm::protocol_name(kind);
    EXPECT_FALSE(r.backup_is_home) << dsm::protocol_name(kind);  // node 3 demoted on rejoin
    // Zone moves: death of 2 moved {zone2}; death of 3 moved {zone2, zone3}.
    EXPECT_EQ(r.stats.get(Counter::kHaPromotions), 3u) << dsm::protocol_name(kind);
    EXPECT_EQ(count_events(r.trace, TraceKind::kHomePromoted), 3u) << dsm::protocol_name(kind);
    EXPECT_EQ(count_events(r.trace, TraceKind::kEpochBump), 2u) << dsm::protocol_name(kind);
    // Both windows closed in-band: two restarts, two rejoins, two recovery
    // latencies observed.
    EXPECT_EQ(count_events(r.trace, TraceKind::kNodeRestart), 2u) << dsm::protocol_name(kind);
    EXPECT_EQ(count_events(r.trace, TraceKind::kHaRejoined), 2u) << dsm::protocol_name(kind);
    EXPECT_EQ(r.stats.hist(Hist::kRecoveryLatency).count(), 2u) << dsm::protocol_name(kind);
    // replicas=2 turns the checkpoint stream into real messages.
    EXPECT_GT(r.stats.get(Counter::kHaCheckpointMsgs), 0u) << dsm::protocol_name(kind);
  }
}

TEST(HaMultiFailure, OverlappingHomeAndFirstBackupCrashesRecoverWithTwoReplicas) {
  // Node 2 AND its first chain member (node 3) are down at the same time.
  // With replicas=2 the second chain member (node 0) still holds the mirror,
  // so both zones elect node 0 and nothing is lost.
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    HaRunResult r = run_counter_with_crash(
        kind, "replicas=2,crash2@1ms+1ms,crash3@1ms+1ms,seed=7");
    EXPECT_EQ(r.counter, kExpected) << dsm::protocol_name(kind);
    EXPECT_EQ(r.promotions, 2u) << dsm::protocol_name(kind);
    EXPECT_EQ(r.epoch, 2u) << dsm::protocol_name(kind);
    // The counter zone skipped the dead first chain member: 2 -> 0 directly.
    EXPECT_EQ(r.zone2_home, 0) << dsm::protocol_name(kind);
    EXPECT_TRUE(r.elected_is_home) << dsm::protocol_name(kind);
    // One zone moved per death (zone 2 off node 2, zone 3 off node 3).
    EXPECT_EQ(r.stats.get(Counter::kHaPromotions), 2u) << dsm::protocol_name(kind);
  }
}

TEST(HaMultiFailureDeath, LosingAllCopiesFailsFastWithDiagnosableError) {
  // replicas=1: node 2's only mirror lives on node 3. A schedule that takes
  // both down at once would silently lose zone 2 — instead the run fails
  // fast at HaManager::start(), before any simulation, naming the node and
  // the remedy. (The schedule is PARSE-valid — distinct nodes may overlap —
  // this check needs the actual cluster size and placement.)
  hyperion::VmConfig cfg;
  cfg.cluster = cluster::ClusterParams::myrinet200();
  cfg.cluster.fault = cluster::FaultProfile::parse("crash2@1ms+1ms,crash3@1ms+1ms,seed=7");
  cfg.nodes = kNodes;
  cfg.protocol = dsm::ProtocolKind::kJavaPf;
  cfg.region_bytes = std::size_t{16} << 20;
  EXPECT_DEATH({ hyperion::HyperionVM vm(cfg); }, "unrecoverable crash schedule");
}

// --- 6. checkpoint stream accounting -----------------------------------------

// Sum / count of traced checkpoint transmissions (TraceKind::kCheckpoint's b
// argument is the full message size in bytes).
std::uint64_t traced_checkpoint_bytes(const std::vector<TraceEvent>& events) {
  std::uint64_t sum = 0;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceKind::kCheckpoint) sum += static_cast<std::uint64_t>(e.b);
  }
  return sum;
}

TEST(HaCheckpointStream, PiggybackAccountingMatchesTracedCheckpoints) {
  // Classic mode (replicas=1, no ckpt_bw): no stream messages, but the
  // counter must still equal the sum of traced checkpoint sizes.
  HaRunResult r = run_counter_with_crash(dsm::ProtocolKind::kJavaPf, kCrashProfile);
  EXPECT_EQ(r.stats.get(Counter::kHaCheckpointMsgs), 0u);
  EXPECT_GT(r.stats.get(Counter::kHaCheckpointBytes), 0u);
  EXPECT_EQ(r.stats.get(Counter::kHaCheckpointBytes), traced_checkpoint_bytes(r.trace));
}

TEST(HaCheckpointStream, StreamedCheckpointBytesMatchTracedMessages) {
  // Modeled stream (replicas=2): checkpoints are real cluster messages —
  // ha_checkpoint_bytes == the exact sum of traced checkpoint message sizes,
  // one kCheckpoint trace per transmitted message, and chain members confirm
  // applies with kCheckpointApplied.
  HaRunResult r = run_counter_with_crash(dsm::ProtocolKind::kJavaPf, kMultiCrashProfile);
  const std::uint64_t msgs = count_events(r.trace, TraceKind::kCheckpoint);
  EXPECT_GT(msgs, 0u);
  EXPECT_EQ(r.stats.get(Counter::kHaCheckpointMsgs), msgs);
  EXPECT_EQ(r.stats.get(Counter::kHaCheckpointBytes), traced_checkpoint_bytes(r.trace));
  // Applies happen (some messages may be dropped against dead chain members
  // or still in flight at quiesce, so applied <= sent).
  const std::uint64_t applied = count_events(r.trace, TraceKind::kCheckpointApplied);
  EXPECT_GT(applied, 0u);
  EXPECT_LE(applied, msgs);
}

TEST(HaCheckpointStream, BandwidthBudgetPacesTheStream) {
  // ckpt_bw alone turns the stream on (even at replicas=1). A tight budget
  // serializes departures through the per-node pacing gate, so the last
  // chain apply lags the last emission far more than under a loose budget.
  auto lag = [](const HaRunResult& r) {
    Time last_sent = 0;
    Time last_applied = 0;
    for (const TraceEvent& e : r.trace) {
      if (e.kind == TraceKind::kCheckpoint) last_sent = e.at;
      if (e.kind == TraceKind::kCheckpointApplied) last_applied = e.at;
    }
    EXPECT_GT(last_sent, 0u);
    EXPECT_GT(last_applied, 0u);
    return last_applied > last_sent ? last_applied - last_sent : Time{0};
  };
  // Loose: a ~25-byte checkpoint costs ~25 ns of budget — the stream never
  // backs up. Tight: the same message costs ~2.5 ms against a ~100 us
  // checkpoint cadence — departures serialize far behind the emissions.
  HaRunResult loose = run_counter_with_crash(dsm::ProtocolKind::kJavaPf,
                                             "ckpt_bw=1000,crash2@1ms+800us,seed=7");
  HaRunResult tight = run_counter_with_crash(dsm::ProtocolKind::kJavaPf,
                                             "ckpt_bw=0.01,crash2@1ms+800us,seed=7");
  EXPECT_GT(loose.stats.get(Counter::kHaCheckpointMsgs), 0u);
  EXPECT_GT(tight.stats.get(Counter::kHaCheckpointMsgs), 0u);
  // Both runs still recover the exact answer.
  EXPECT_EQ(loose.counter, kExpected);
  EXPECT_EQ(tight.counter, kExpected);
  EXPECT_GT(lag(tight), lag(loose));
}

// --- 7. determinism goldens ---------------------------------------------------

// --- 8. partition tolerance: the split-brain matrix (docs/PARTITIONS.md) -----
//
// Same shared-counter workload, but instead of (or on top of) killing the
// home, the network splits. The invariants:
//   - the split-brain oracle: once an epoch bump moves a zone's authority off
//     a node, that node never again applies consistency updates as home;
//   - quorum promotion: a zone's home is re-elected only when the watcher's
//     side holds a strict majority of the cluster AND a majority of the dead
//     home's chain backups voted; even splits park both sides;
//   - exactness: every increment survives the cut and the heal.

// The counter's home (node 2) alone on the minority side; {0,1,3} is a strict
// majority holding the whole replica chain, so it promotes mid-window.
constexpr const char* kMinoritySplitProfile = "partition@1ms+800us:2|0.1.3,seed=7";

// Split-brain oracle over the trace: after the first epoch bump, the stale
// home must not confirm a single consistency apply.
void expect_no_stale_home_applies(const HaRunResult& r, cluster::NodeId stale) {
  const TraceEvent* bump = find_event(r.trace, TraceKind::kEpochBump);
  ASSERT_NE(bump, nullptr);
  for (const TraceEvent& e : r.trace) {
    if (e.kind == TraceKind::kUpdateApplied && e.node == stale) {
      EXPECT_LT(e.at, bump->at)
          << "stale home " << stale << " applied an update after authority moved";
    }
  }
}

TEST(HaPartition, MinorityIsolatedHomePromotesOnMajoritySide) {
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    HaRunResult r = run_counter_with_crash(kind, kMinoritySplitProfile);
    // Exactness across cut -> promote -> heal -> rejoin.
    EXPECT_EQ(r.counter, kExpected) << dsm::protocol_name(kind);
    EXPECT_EQ(r.promoted_for, kCrashNode) << dsm::protocol_name(kind);
    EXPECT_EQ(r.epoch, 1u) << dsm::protocol_name(kind);
    EXPECT_EQ(r.zone2_home, kCrashNode + 1) << dsm::protocol_name(kind);
    // The cut was real: packets died on the wire and minority-side callers
    // parked on typed kNoQuorum failures instead of burning retries.
    EXPECT_GT(r.stats.get(Counter::kHaPartitionDrops), 0u) << dsm::protocol_name(kind);
    EXPECT_GT(r.stats.get(Counter::kHaNoQuorumHolds), 0u) << dsm::protocol_name(kind);
    // Both edges of the window traced (open + heal).
    EXPECT_EQ(count_events(r.trace, TraceKind::kHaPartition), 2u)
        << dsm::protocol_name(kind);
    // No crash, no restart — but the partition-confirmed node rejoined via
    // the heal catch-up.
    EXPECT_EQ(count_events(r.trace, TraceKind::kNodeRestart), 0u)
        << dsm::protocol_name(kind);
    EXPECT_EQ(count_events(r.trace, TraceKind::kHaRejoined), 1u)
        << dsm::protocol_name(kind);
    // Recovery latency is crash-scoped; a partition confirm must not record a
    // bogus (now - 0) sample.
    EXPECT_EQ(r.stats.hist(Hist::kRecoveryLatency).count(), 0u)
        << dsm::protocol_name(kind);
    expect_no_stale_home_applies(r, kCrashNode);
  }
}

TEST(HaPartition, EvenSplitParksBothSidesWithoutPromotion) {
  // 0.1|2.3 is a 2/2 split: neither watcher side reaches a strict majority of
  // the cluster, so nobody promotes — both sides park on kNoQuorum and drain
  // at the heal. Split-brain safety by parking.
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    HaRunResult r =
        run_counter_with_crash(kind, "partition@1ms+800us:0.1|2.3,seed=7");
    EXPECT_EQ(r.counter, kExpected) << dsm::protocol_name(kind);
    EXPECT_EQ(r.epoch, 0u) << dsm::protocol_name(kind);
    EXPECT_EQ(r.promotions, 0u) << dsm::protocol_name(kind);
    EXPECT_EQ(r.zone2_home, kCrashNode) << dsm::protocol_name(kind);
    EXPECT_EQ(count_events(r.trace, TraceKind::kEpochBump), 0u)
        << dsm::protocol_name(kind);
    EXPECT_EQ(count_events(r.trace, TraceKind::kHomePromoted), 0u)
        << dsm::protocol_name(kind);
    EXPECT_GT(r.stats.get(Counter::kHaNoQuorumHolds), 0u) << dsm::protocol_name(kind);
  }
}

TEST(HaPartition, HomeOnMajoritySideKeepsAuthorityMinorityParks) {
  // Node 0 (the main thread's node) is the isolated minority; the counter's
  // home keeps serving on the majority side. Node 0's zones fail over to node
  // 1, and node 0's own callers park until the heal.
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    HaRunResult r =
        run_counter_with_crash(kind, "partition@1ms+800us:0|1.2.3,seed=7");
    EXPECT_EQ(r.counter, kExpected) << dsm::protocol_name(kind);
    EXPECT_EQ(r.promoted_for, 0) << dsm::protocol_name(kind);
    EXPECT_EQ(r.epoch, 1u) << dsm::protocol_name(kind);
    // The counter's zone never moved.
    EXPECT_EQ(r.zone2_home, kCrashNode) << dsm::protocol_name(kind);
    EXPECT_TRUE(r.crashed_is_home) << dsm::protocol_name(kind);
    expect_no_stale_home_applies(r, 0);
  }
}

TEST(HaPartition, PartitionOverlappingCrashDefersConfirmUntilQuorum) {
  // Node 2 crashes at 1ms; at 1.2ms an even split ALSO cuts the watcher
  // (node 3) off from {0,1}. With only itself reachable, the watcher cannot
  // form a promotion quorum — the confirm waits for the 1.6ms heal even
  // though the detector's confirm timeout expired at ~1.6ms anyway... so pin
  // it sharper: silence expires at 1.6ms but reach only returns at the heal,
  // and the confirmed death lands after BOTH.
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    HaRunResult r = run_counter_with_crash(
        kind, "crash2@1ms+800us,partition@1.2ms+400us:0.1|2.3,seed=7");
    EXPECT_EQ(r.counter, kExpected) << dsm::protocol_name(kind);
    EXPECT_EQ(r.promoted_for, kCrashNode) << dsm::protocol_name(kind);
    EXPECT_EQ(r.epoch, 1u) << dsm::protocol_name(kind);
    EXPECT_EQ(r.zone2_home, kCrashNode + 1) << dsm::protocol_name(kind);
    const TraceEvent* confirmed = find_event(r.trace, TraceKind::kHaDeadConfirmed);
    ASSERT_NE(confirmed, nullptr) << dsm::protocol_name(kind);
    EXPECT_GE(confirmed->at, 1600 * kMicrosecond) << dsm::protocol_name(kind);
    // It is still a crash death: exactly one recovery-latency sample, now
    // stretched past the partition heal.
    const auto& h = r.stats.hist(Hist::kRecoveryLatency);
    ASSERT_EQ(h.count(), 1u) << dsm::protocol_name(kind);
    EXPECT_GE(h.min(), 600 * kMicrosecond) << dsm::protocol_name(kind);
  }
}

TEST(HaPartition, HealThenResplitReconfirmsWithoutDoubleHome) {
  // The minority split promotes (epoch 1), heals (node 2 rejoins as a
  // cacher), then a second window isolates node 2 again. The detector
  // re-confirms it (epoch 2) but no zone moves — its authority already lives
  // at node 3 — and the answer stays exact through both cycles.
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    // The second window must outlive the detector's confirm timeout (600us)
    // or the re-isolation heals before it can be re-confirmed.
    HaRunResult r = run_counter_with_crash(
        kind, "partition@1ms+800us:2|0.1.3,partition@2.5ms+900us:2|0.1.3,seed=7");
    EXPECT_EQ(r.counter, kExpected) << dsm::protocol_name(kind);
    EXPECT_EQ(r.epoch, 2u) << dsm::protocol_name(kind);
    EXPECT_EQ(r.zone2_home, kCrashNode + 1) << dsm::protocol_name(kind);
    // One zone move total (the first confirm); the re-confirm had nothing to
    // move.
    EXPECT_EQ(r.stats.get(Counter::kHaPromotions), 1u) << dsm::protocol_name(kind);
    EXPECT_EQ(count_events(r.trace, TraceKind::kHaRejoined), 2u)
        << dsm::protocol_name(kind);
    EXPECT_EQ(count_events(r.trace, TraceKind::kHaPartition), 4u)
        << dsm::protocol_name(kind);
    expect_no_stale_home_applies(r, kCrashNode);
  }
}

// Failover copies and diffs only the zone's allocated prefix. The isolated
// home keeps allocating in its own zone after the majority side promoted its
// backup, so the heal's fold must reach past the promotion-time prefix: an
// object allocated and written inside the window must arrive at the current
// home byte for byte.
TEST(HaPartition, HealFoldsObjectsAllocatedPastThePromotionPrefix) {
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf,
                    dsm::ProtocolKind::kHybrid}) {
    hyperion::VmConfig cfg;
    cfg.cluster = cluster::ClusterParams::myrinet200();
    cfg.cluster.fault = cluster::FaultProfile::parse(
        "partition@1ms+800us:2|0.1.3,hb=50us,suspect=200us,confirm=400us,seed=7");
    cfg.nodes = kNodes;
    cfg.protocol = kind;
    cfg.region_bytes = std::size_t{16} << 20;
    hyperion::HyperionVM vm(cfg);
    const std::size_t page_bytes = vm.dsm().layout().page_bytes();
    const std::size_t words = 2 * page_bytes / sizeof(std::int64_t);
    std::size_t promoted_prefix = 0;
    dsm::Gva fresh = 0;
    dsm::with_policy(kind, [&](auto policy) {
      using P = decltype(policy);
      vm.run_main([&](hyperion::JavaEnv& main) {
        auto writer = main.start_thread("isolated", [&](hyperion::JavaEnv& env) {
          env.migrate_to(kCrashNode);
          env.new_cell<std::int64_t>(1);  // the zone's prefix at promotion
          // Inside the window, after the majority side took the zone over.
          sim::Engine::current()->sleep_until(1700 * kMicrosecond);
          ASSERT_EQ(vm.ha()->home_node(kCrashNode), kCrashNode + 1);
          promoted_prefix = vm.dsm().node_dsm(kCrashNode).allocated_bytes();
          fresh = env.alloc_raw(words * sizeof(std::int64_t));
          hyperion::Mem<P> mem(env.ctx());
          for (std::size_t w = 0; w < words; ++w) {
            mem.put(hyperion::GRef<std::int64_t>{fresh + w * sizeof(std::int64_t)},
                    static_cast<std::int64_t>(1000 + w));
          }
          sim::Engine::current()->sleep_until(2 * kMillisecond);  // past the heal
        });
        main.join(writer);
      });
    });
    const char* name = dsm::protocol_name(kind);
    // The object reaches past the last page the promotion mirrored.
    ASSERT_LE(promoted_prefix, page_bytes) << name;
    ASSERT_GT(fresh + words * sizeof(std::int64_t),
              vm.dsm().layout().zone_begin(kCrashNode) + page_bytes) << name;
    EXPECT_EQ(vm.ha()->home_node(kCrashNode), kCrashNode + 1) << name;
    for (std::size_t w = 0; w < words; ++w) {
      ASSERT_EQ(vm.dsm().read_home<std::int64_t>(fresh + w * sizeof(std::int64_t)),
                static_cast<std::int64_t>(1000 + w))
          << name << " word " << w;
    }
  }
}

TEST(HaPartition, QuorumReadsServeSuspectedHomeWindow) {
  // A majority-side reader fetches a page homed on the isolated node DURING
  // the suspected-but-unconfirmed window (~[1.2ms, 1.6ms)): the read is
  // served by quorum from the home's chain backups instead of waiting out
  // the detector. The lock object is homed on node 0 so the monitor path
  // stays on the majority side.
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    hyperion::VmConfig cfg;
    cfg.cluster = cluster::ClusterParams::myrinet200();
    cfg.cluster.fault = cluster::FaultProfile::parse(kMinoritySplitProfile);
    cfg.nodes = kNodes;
    cfg.protocol = kind;
    cfg.region_bytes = std::size_t{16} << 20;
    cluster::TraceLog trace(1 << 16);
    cfg.trace = &trace;

    hyperion::HyperionVM vm(cfg);
    std::int64_t pre = 0;
    std::int64_t during = 0;
    dsm::Gva data_addr = 0;
    dsm::with_policy(kind, [&](auto policy) {
      using P = decltype(policy);
      vm.run_main([&](hyperion::JavaEnv& main) {
        main.migrate_to(kCrashNode);
        auto data = main.new_cell<std::int64_t>(41);
        data_addr = data.addr;
        main.migrate_to(0);
        auto lock = main.new_cell<std::int64_t>(0);
        auto reader =
            main.start_thread("reader", [&, data, lock](hyperion::JavaEnv& env) {
              env.migrate_to(1);
              hyperion::Mem<P> mem(env.ctx());
              // Warm read before the cut: an ordinary remote fetch.
              env.synchronized(lock.addr, [&] { pre = mem.get(data); });
              // Land the second fetch inside the suspect window. The acquire
              // invalidates the cached copy, forcing a real re-fetch.
              sim::Engine::current()->sleep_until(1300 * kMicrosecond);
              env.synchronized(lock.addr, [&] { during = mem.get(data); });
            });
        main.join(reader);
      });
    });
    EXPECT_EQ(pre, 41) << dsm::protocol_name(kind);
    EXPECT_EQ(during, 41) << dsm::protocol_name(kind);
    EXPECT_GE(vm.stats().get(Counter::kHaQuorumReads), 1u) << dsm::protocol_name(kind);
    const TraceEvent* qr = find_event(trace.events(), TraceKind::kHaQuorumRead);
    ASSERT_NE(qr, nullptr) << dsm::protocol_name(kind);
    EXPECT_EQ(qr->node, 1) << dsm::protocol_name(kind);  // the reader's node
    EXPECT_EQ(qr->a, static_cast<std::int64_t>(vm.dsm().layout().page_of(data_addr)))
        << dsm::protocol_name(kind);
    EXPECT_EQ(qr->b, kCrashNode + 1) << dsm::protocol_name(kind);  // chain backup
  }
}

// Satellite of the same robustness story: node 0 hosts the Java main thread,
// and killing it used to be rejected at parse time. Under the
// thread-checkpoint model its fibers freeze through the window like any other
// node's, its zones fail over to node 1, and the run recovers exactly.
TEST(HaRecovery, KillNodeZeroAndRecover) {
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    HaRunResult r = run_counter_with_crash(kind, "crash0@1ms+800us,seed=7");
    EXPECT_EQ(r.counter, kExpected) << dsm::protocol_name(kind);
    EXPECT_EQ(r.promoted_for, 0) << dsm::protocol_name(kind);
    EXPECT_EQ(r.epoch, 1u) << dsm::protocol_name(kind);
    // The counter's zone (node 2) never moved; node 0's own zone did.
    EXPECT_EQ(r.zone2_home, kCrashNode) << dsm::protocol_name(kind);
    EXPECT_EQ(count_events(r.trace, TraceKind::kNodeRestart), 1u)
        << dsm::protocol_name(kind);
    EXPECT_EQ(count_events(r.trace, TraceKind::kHaRejoined), 1u)
        << dsm::protocol_name(kind);
  }
}

#ifndef HYP_RECOVERY_GOLDEN_FILE
#error "HYP_RECOVERY_GOLDEN_FILE must point at the recorded goldens"
#endif

std::string golden_line(dsm::ProtocolKind kind, const HaRunResult& r) {
  std::uint64_t value_bits = 0;
  const double value = static_cast<double>(r.counter);
  static_assert(sizeof(value_bits) == sizeof(value));
  std::memcpy(&value_bits, &value, sizeof(value_bits));
  std::ostringstream os;
  os << "counter_crash " << dsm::protocol_name(kind) << " n" << kNodes
     << " value_bits=" << value_bits << " elapsed=" << r.elapsed
     << " events=" << r.events_processed << " switches=" << r.context_switches;
  for (const auto& [name, v] : r.stats.nonzero()) os << ' ' << name << '=' << v;
  return os.str();
}

// Determinism under partitions: a same-seed minority-split run must be
// byte-identical (the hash-derived drops, the detector's tick grid and the
// heal catch-up are all virtual-time-deterministic).
TEST(HaPartitionGolden, SameSeedPartitionRunIsBitIdentical) {
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    HaRunResult a = run_counter_with_crash(kind, kMinoritySplitProfile);
    HaRunResult b = run_counter_with_crash(kind, kMinoritySplitProfile);
    EXPECT_EQ(golden_line(kind, a), golden_line(kind, b))
        << "same-seed partition rerun diverged (" << dsm::protocol_name(kind) << ")";
  }
}

TEST(HaRecoveryGolden, SameSeedKillAndRecoverIsBitIdentical) {
  std::vector<std::string> lines;
  std::map<std::string, std::string> actual;
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    // Two same-seed runs inside this binary must agree before either is
    // compared to the recorded golden.
    HaRunResult a = run_counter_with_crash(kind, kCrashProfile);
    HaRunResult b = run_counter_with_crash(kind, kCrashProfile);
    const std::string line = golden_line(kind, a);
    ASSERT_EQ(line, golden_line(kind, b)) << "same-seed rerun diverged";
    lines.push_back(line);
    actual[std::string("counter_crash ") + dsm::protocol_name(kind)] = line;
  }

  if (std::getenv("HYP_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(HYP_RECOVERY_GOLDEN_FILE);
    ASSERT_TRUE(out.good()) << "cannot write " << HYP_RECOVERY_GOLDEN_FILE;
    out << "# Recovery goldens: shared-counter workload (6 workers x 40\n"
           "# synchronized increments, counter homed on node 2) on myri200 x4\n"
           "# under crash2@1ms+800us,seed=7, both protocols. A same-seed\n"
           "# kill-and-recover run must stay byte-identical; re-record with\n"
           "# HYP_UPDATE_GOLDENS=1 ./ha_tests and justify the semantic change\n"
           "# in the commit message.\n";
    for (const auto& line : lines) out << line << '\n';
    GTEST_SKIP() << "goldens re-recorded at " << HYP_RECOVERY_GOLDEN_FILE;
  }

  std::ifstream in(HYP_RECOVERY_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << "missing goldens; record with HYP_UPDATE_GOLDENS=1";
  std::map<std::string, std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string a, b;
    is >> a >> b;
    expected[a + ' ' + b] = line;
  }
  ASSERT_EQ(expected.size(), actual.size()) << "golden file is stale";
  for (const auto& [key, want] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "no run for golden point " << key;
    EXPECT_EQ(it->second, want)
        << "kill-and-recover drifted at " << key << "\n  expected: " << want
        << "\n  actual:   " << it->second;
  }
}

#ifndef HYP_MULTI_RECOVERY_GOLDEN_FILE
#error "HYP_MULTI_RECOVERY_GOLDEN_FILE must point at the recorded goldens"
#endif

// Multi-failure twin of the golden above: two sequential crashes under
// replicas=2 (chain backups + streamed checkpoints). Pins the K-replica
// election order, the checkpoint message stream and the update op-id wire
// format in one line per protocol.
TEST(HaMultiRecoveryGolden, SameSeedMultiKillRunIsBitIdentical) {
  std::vector<std::string> lines;
  std::map<std::string, std::string> actual;
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
    HaRunResult a = run_counter_with_crash(kind, kMultiCrashProfile);
    HaRunResult b = run_counter_with_crash(kind, kMultiCrashProfile);
    const std::string line = golden_line(kind, a);
    ASSERT_EQ(line, golden_line(kind, b)) << "same-seed rerun diverged";
    lines.push_back(line);
    actual[std::string("counter_crash ") + dsm::protocol_name(kind)] = line;
  }

  if (std::getenv("HYP_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(HYP_MULTI_RECOVERY_GOLDEN_FILE);
    ASSERT_TRUE(out.good()) << "cannot write " << HYP_MULTI_RECOVERY_GOLDEN_FILE;
    out << "# Multi-failure recovery goldens: shared-counter workload (6 workers\n"
           "# x 40 synchronized increments, counter homed on node 2) on myri200\n"
           "# x4 under replicas=2,crash2@1ms+800us,crash3@8ms+2ms,seed=7, both\n"
           "# protocols. Two sequential crashes must recover the exact answer\n"
           "# byte-identically; re-record with HYP_UPDATE_GOLDENS=1 ./ha_tests\n"
           "# and justify the semantic change in the commit message.\n";
    for (const auto& line : lines) out << line << '\n';
    GTEST_SKIP() << "goldens re-recorded at " << HYP_MULTI_RECOVERY_GOLDEN_FILE;
  }

  std::ifstream in(HYP_MULTI_RECOVERY_GOLDEN_FILE);
  ASSERT_TRUE(in.good()) << "missing goldens; record with HYP_UPDATE_GOLDENS=1";
  std::map<std::string, std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string a, b;
    is >> a >> b;
    expected[a + ' ' + b] = line;
  }
  ASSERT_EQ(expected.size(), actual.size()) << "golden file is stale";
  for (const auto& [key, want] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "no run for golden point " << key;
    EXPECT_EQ(it->second, want)
        << "multi-kill recovery drifted at " << key << "\n  expected: " << want
        << "\n  actual:   " << it->second;
  }
}

}  // namespace
}  // namespace hyp::ha
