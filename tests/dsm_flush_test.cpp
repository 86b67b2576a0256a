// The update pipeline's cohort rules (docs/PROTOCOLS.md §One engine) and
// home routing across a migration.
//
// updateMainMemory groups pending updates into cohorts, one message each.
// The cohort key and the ship order differ per protocol and HA setting, and
// each rule shows up on the wire, so these tests pin them one by one from
// the kUpdateSent trace:
//   * java_ic / java_pf key by home and ship in ascending key order;
//   * with chain replicas (replicas > 1) they key by zone, so two zones that
//     a promotion put on one node still travel as two messages;
//   * hybrid ships in first-touch order, keys by page under HA, and re-keys
//     the unshipped remainder when a home migrates mid-flush.
// The HomeRoute tests race a page fetch and monitor enter/exit against a
// home migration: the old home refuses the request and the caller resends
// it to the new one. The TwinBytes tests pin when a pf-mode replica takes
// its twin's bytes (its first local store, never a page gone absent during
// the store's miss) and what its flush ships and charges. The FlushGuard
// tests flush one cohort per page for hundreds of pages, which must not be
// mistaken for a reroute that does not converge.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/trace.hpp"
#include "dsm/access.hpp"
#include "dsm/dsm.hpp"
#include "ha/ha.hpp"
#include "hyperion/monitor.hpp"
#include "hyperion/vm.hpp"
#include "sim/engine.hpp"

namespace hyp::dsm {
namespace {

using cluster::TraceEvent;
using cluster::TraceKind;

// Destinations of the update messages `node` sent among `events[from, to)`.
std::vector<std::int64_t> update_dests(const std::vector<TraceEvent>& events, int node,
                                       std::size_t from = 0, std::size_t to = ~std::size_t{0}) {
  std::vector<std::int64_t> dests;
  for (std::size_t i = from; i < events.size() && i < to; ++i) {
    const TraceEvent& e = events[i];
    if (e.kind == TraceKind::kUpdateSent && e.node == node) dests.push_back(e.a);
  }
  return dests;
}

// Node 0 stores to a word homed on node 3, then to one homed on node 1, and
// flushes.
std::vector<std::int64_t> two_home_flush(ProtocolKind kind) {
  cluster::Cluster c(cluster::ClusterParams::myrinet200(), 4);
  cluster::TraceLog trace;
  c.set_trace(&trace);
  DsmSystem dsm(&c, std::size_t{1} << 20, kind);
  const Gva on3 = dsm.alloc(3, 8);
  const Gva on1 = dsm.alloc(1, 8);
  c.spawn_thread(0, "writer", [&] {
    auto t = dsm.make_thread(0);
    with_policy(kind, [&](auto policy) {
      using P = decltype(policy);
      P::template put<std::int64_t>(*t, on3, 3);
      P::template put<std::int64_t>(*t, on1, 1);
    });
    dsm.update_main_memory(*t);
  });
  c.run();
  EXPECT_EQ(dsm.read_home<std::int64_t>(on3), 3);
  EXPECT_EQ(dsm.read_home<std::int64_t>(on1), 1);
  return update_dests(trace.events(), 0);
}

TEST(FlushCohorts, PinnedProtocolsShipByAscendingHomeHybridByFirstTouch) {
  EXPECT_EQ(two_home_flush(ProtocolKind::kJavaIc), (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(two_home_flush(ProtocolKind::kJavaPf), (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(two_home_flush(ProtocolKind::kHybrid), (std::vector<std::int64_t>{3, 1}));
}

// Zone 2's crash promotes node 3, which then homes zones 2 and 3.
// Node 0 stores to a cell in each inside one synchronized block; returns the
// destinations of that block's update messages.
std::vector<std::int64_t> promoted_zone_flush(ProtocolKind kind, int replicas) {
  hyperion::VmConfig cfg;
  cfg.cluster.fault =
      cluster::FaultProfile::parse("replicas=" + std::to_string(replicas) + ",crash2@1ms+800us");
  cfg.nodes = 4;
  cfg.protocol = kind;
  cfg.region_bytes = std::size_t{16} << 20;
  cluster::TraceLog trace(1 << 16);
  cfg.trace = &trace;
  hyperion::HyperionVM vm(cfg);
  std::size_t from = 0;
  std::size_t to = 0;
  with_policy(kind, [&](auto policy) {
    using P = decltype(policy);
    vm.run_main([&](hyperion::JavaEnv& main) {
      main.migrate_to(2);
      auto in_zone2 = main.new_cell<std::int64_t>(0);
      main.migrate_to(3);
      auto in_zone3 = main.new_cell<std::int64_t>(0);
      main.migrate_to(0);
      auto lock = main.new_cell<std::int64_t>(0);
      main.ctx().clock.flush();
      sim::sleep_for(5 * kMillisecond);  // well past the promotion
      EXPECT_EQ(vm.ha()->home_node(2), 3);
      hyperion::Mem<P> mem(main.ctx());
      from = trace.events().size();
      main.synchronized(lock.addr, [&] {
        mem.put(in_zone2, std::int64_t{22});
        mem.put(in_zone3, std::int64_t{33});
      });
      to = trace.events().size();
      EXPECT_EQ(vm.dsm().read_home<std::int64_t>(in_zone2.addr), 22);
      EXPECT_EQ(vm.dsm().read_home<std::int64_t>(in_zone3.addr), 33);
    });
  });
  return update_dests(trace.events(), 0, from, to);
}

TEST(FlushCohorts, PinnedProtocolsKeyByZoneOnlyWithChainReplicas) {
  for (ProtocolKind kind : {ProtocolKind::kJavaIc, ProtocolKind::kJavaPf}) {
    EXPECT_EQ(promoted_zone_flush(kind, 2), (std::vector<std::int64_t>{3, 3}))
        << protocol_name(kind);
    EXPECT_EQ(promoted_zone_flush(kind, 1), (std::vector<std::int64_t>{3}))
        << protocol_name(kind);
  }
}

TEST(FlushCohorts, HybridKeysByPageUnderHa) {
  EXPECT_EQ(promoted_zone_flush(ProtocolKind::kHybrid, 2), (std::vector<std::int64_t>{3, 3}));
  EXPECT_EQ(promoted_zone_flush(ProtocolKind::kHybrid, 1), (std::vector<std::int64_t>{3, 3}));
}

// hybrid, no HA: pages P and Q are homed on node 1. Node 2 flushes eight
// stores to P at 0.1, 5.1 and 10.1 ms — two dominated migration epochs, so P
// moves to node 2 at the third flush. Node 3 read P, Q and a node-0 word
// early on; it stores to the word, P and Q and starts its flush `lead`
// before 10.1 ms, racing the migration.
struct MigrationRace {
  std::vector<std::int64_t> dests;  // node 3's update messages
  std::size_t nacks = 0;            // stale-home refusals node 3 received
  NodeId p_home = -1;
};

MigrationRace flush_across_migration(TimeDelta lead) {
  cluster::Cluster c(cluster::ClusterParams::myrinet200(), 4);
  cluster::TraceLog trace;
  c.set_trace(&trace);
  DsmSystem dsm(&c, std::size_t{1} << 20, ProtocolKind::kHybrid);
  const std::size_t page = dsm.layout().page_bytes();
  const Gva word = dsm.alloc(0, 8);
  const Gva p = dsm.alloc(1, page, page);
  const Gva q = dsm.alloc(1, page, page);
  const Time third_flush = 10 * kMillisecond + 100 * kMicrosecond;
  c.spawn_thread(2, "dominant_writer", [&] {
    auto t = dsm.make_thread(2);
    for (int round = 0; round < 3; ++round) {
      sim::sleep_until(100 * kMicrosecond + round * 5 * kMillisecond);
      for (int i = 0; i < 8; ++i) {
        HybridPolicy::put<std::int64_t>(*t, p + 8 * i, 10 * round + i);
      }
      dsm.update_main_memory(*t);
    }
  });
  c.spawn_thread(3, "racer", [&] {
    auto t = dsm.make_thread(3);
    HybridPolicy::get<std::int64_t>(*t, p);
    HybridPolicy::get<std::int64_t>(*t, q);
    HybridPolicy::get<std::int64_t>(*t, word);
    t->clock.flush();
    sim::sleep_until(third_flush - lead);
    HybridPolicy::put<std::int64_t>(*t, word, 100);
    HybridPolicy::put<std::int64_t>(*t, p + 512, 101);
    HybridPolicy::put<std::int64_t>(*t, q, 102);
    dsm.update_main_memory(*t);
  });
  c.run();
  MigrationRace out;
  out.dests = update_dests(trace.events(), 3);
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == TraceKind::kHaNack && e.a == 3) ++out.nacks;
  }
  out.p_home = dsm.effective_home_of(p);
  EXPECT_EQ(dsm.read_home<std::int64_t>(word), 100);
  EXPECT_EQ(dsm.read_home<std::int64_t>(p + 512), 101);
  EXPECT_EQ(dsm.read_home<std::int64_t>(q), 102);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(dsm.read_home<std::int64_t>(p + 8 * i), 20 + i);
  return out;
}

TEST(FlushCohorts, HybridReKeysTheRemainderWhenAHomeMigratesMidFlush) {
  // The migration lands while node 3 ships to node 0: the remainder is
  // re-keyed and P goes straight to its new home.
  for (TimeDelta lead : {TimeDelta{0}, 10 * kMicrosecond}) {
    const MigrationRace r = flush_across_migration(lead);
    EXPECT_EQ(r.dests, (std::vector<std::int64_t>{0, 2, 1})) << "lead " << lead;
    EXPECT_EQ(r.nacks, 0u) << "lead " << lead;
    EXPECT_EQ(r.p_home, 2) << "lead " << lead;
  }
  // The migration lands while the {P, Q} cohort is in flight to node 1: the
  // NACKed cohort is re-keyed too.
  const MigrationRace r = flush_across_migration(20 * kMicrosecond);
  EXPECT_EQ(r.dests, (std::vector<std::int64_t>{0, 1, 2, 1}));
  EXPECT_EQ(r.nacks, 1u);
  EXPECT_EQ(r.p_home, 2);
}

// Home requests racing a heat migration (hybrid, no HA). As in
// flush_across_migration, node 2 flushes stores to page P at 0.1, 5.1 and
// 10.1 ms, so P moves from node 1 to node 2 when node 1 applies the third
// flush. Node 3 sends one request for P at 10.108 ms: a page fetch, or a
// monitor enter or exit on a lock word living on P. The request leaves
// before the migration and reaches node 1 after it, so node 1 refuses it and
// node 3 must re-resolve the home and resend to node 2.
enum class RacedOp { kFetch, kEnter, kExit };

struct HomeRace {
  std::size_t nacks = 0;       // node 1's refusals of the raced request
  std::uint64_t reroutes = 0;  // node 3's ha_reroutes
};

HomeRace home_request_across_migration(RacedOp op, const std::string& profile) {
  cluster::ClusterParams params = cluster::ClusterParams::myrinet200();
  params.fault = cluster::FaultProfile::parse(profile);
  cluster::Cluster c(params, 4);
  cluster::TraceLog trace;
  c.set_trace(&trace);
  DsmSystem dsm(&c, std::size_t{1} << 20, ProtocolKind::kHybrid);
  hyperion::MonitorSubsystem monitors(&c, &dsm);
  // Monitor state moves with its page, as HyperionVM wires it.
  c.allow_loopback();
  dsm.set_home_moved_hook([&](NodeId from, NodeId to, Gva begin, Gva end) {
    monitors.fail_over_home(from, to, begin, end);
  });
  const std::size_t page = dsm.layout().page_bytes();
  const Gva p = dsm.alloc(1, page, page);
  const Gva lock = p + 512;
  const Time send_at = 10 * kMillisecond + 108 * kMicrosecond;
  c.spawn_thread(2, "dominant_writer", [&] {
    auto t = dsm.make_thread(2);
    for (int round = 0; round < 3; ++round) {
      sim::sleep_until(100 * kMicrosecond + round * 5 * kMillisecond);
      for (int i = 0; i < 8; ++i) {
        HybridPolicy::put<std::int64_t>(*t, p + 8 * i, 10 * round + i);
      }
      dsm.update_main_memory(*t);
    }
  });
  std::vector<std::int64_t> seen;  // node 3's reads of the writer's words
  c.spawn_thread(3, "racer", [&] {
    auto t = dsm.make_thread(3);
    const auto read_p = [&] {
      for (int i = 0; i < 8; ++i) seen.push_back(HybridPolicy::get<std::int64_t>(*t, p + 8 * i));
    };
    const auto synchronized_block = [&] {
      monitors.enter(*t, lock);
      read_p();
      HybridPolicy::put<std::int64_t>(*t, lock + 8, 77);
      monitors.exit(*t, lock);
    };
    switch (op) {
      case RacedOp::kFetch:
        sim::sleep_until(send_at);
        read_p();
        break;
      case RacedOp::kEnter:
        sim::sleep_until(send_at);
        synchronized_block();
        break;
      case RacedOp::kExit:
        monitors.enter(*t, lock);
        t->clock.flush();
        sim::sleep_until(send_at);
        monitors.exit(*t, lock);
        synchronized_block();  // the released lock is free at its new home
        break;
    }
  });
  c.run();
  const cluster::ServiceId raced = op == RacedOp::kFetch   ? svc::kPageRequest
                                   : op == RacedOp::kEnter ? hyperion::svc::kMonitorEnter
                                                           : hyperion::svc::kMonitorExit;
  HomeRace out;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == TraceKind::kHaNack && e.node == 1 && e.a == 3 && e.b == raced) ++out.nacks;
  }
  out.reroutes = c.node(3).stats().get(Counter::kHaReroutes);
  EXPECT_EQ(dsm.effective_home_of(p), 2);
  EXPECT_EQ(seen.size(), 8u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 20 + static_cast<std::int64_t>(i)) << i;
  }
  for (int i = 0; i < 8; ++i) EXPECT_EQ(dsm.read_home<std::int64_t>(p + 8 * i), 20 + i);
  if (op != RacedOp::kFetch) {
    EXPECT_EQ(dsm.read_home<std::int64_t>(lock + 8), 77);
  }
  return out;
}

// Lossless, and on a lossy transport without HA (monitor ops carry op ids).
const char* const kRaceProfiles[] = {"", "dup2%,seed=3"};

TEST(HomeRoute, PageFetchRefusedByTheOldHomeIsResentToTheNewOne) {
  for (const char* profile : kRaceProfiles) {
    const HomeRace r = home_request_across_migration(RacedOp::kFetch, profile);
    EXPECT_EQ(r.nacks, 1u) << "profile '" << profile << "'";
    EXPECT_GE(r.reroutes, 1u) << "profile '" << profile << "'";
  }
}

TEST(HomeRoute, MonitorEnterRefusedByTheOldHomeIsResentToTheNewOne) {
  for (const char* profile : kRaceProfiles) {
    const HomeRace r = home_request_across_migration(RacedOp::kEnter, profile);
    EXPECT_EQ(r.nacks, 1u) << "profile '" << profile << "'";
    EXPECT_GE(r.reroutes, 1u) << "profile '" << profile << "'";
  }
}

TEST(HomeRoute, MonitorExitRefusedByTheOldHomeIsResentToTheNewOne) {
  for (const char* profile : kRaceProfiles) {
    const HomeRace r = home_request_across_migration(RacedOp::kExit, profile);
    EXPECT_EQ(r.nacks, 1u) << "profile '" << profile << "'";
    EXPECT_GE(r.reroutes, 1u) << "profile '" << profile << "'";
  }
}

// A store whose miss yields, racing a sibling's monitor enter (no HA). Page
// P is homed on node 0. Thread A on node 1 stores to P while it is absent in
// pf mode (hybrid first reads P densely, which gives up ic mode, and drops it
// with a monitor enter). A's miss fetches P as a twinned replica, then yields
// while the copies and the trap's mprotect are charged. Thread B on node 1
// enters a monitor homed on node 2 at `enter_at`; its grant lands inside A's
// window, so its invalidation drops P before A's store. The store lands on
// an absent page, and P must not take a twin. (That the store is lost is the
// two-threads-per-node window of ROADMAP's first open item; not asserted.)
struct StoreRace {
  int byte_before = -1;  // P's presence byte on node 1 just before A's store
  int byte_after = -1;   // ... and when it returned
  std::uint64_t fetches = 0;  // A's fetches of P for its store
  std::size_t live_twins = 0;  // node 1's, after the run
};

StoreRace store_miss_across_invalidation(ProtocolKind kind, Time enter_at) {
  cluster::Cluster c(cluster::ClusterParams::myrinet200(), 4);
  DsmSystem dsm(&c, std::size_t{1} << 20, kind);
  hyperion::MonitorSubsystem monitors(&c, &dsm);
  const std::size_t page = dsm.layout().page_bytes();
  const Gva p = dsm.alloc(0, page, page);
  const Gva lock = dsm.alloc(2, 8);
  const PageId pid = dsm.layout().page_of(p);
  NodeDsm& nd = dsm.node_dsm(1);
  StoreRace out;
  c.spawn_thread(1, "storer", [&] {
    auto t = dsm.make_thread(1);
    if (kind == ProtocolKind::kHybrid) {
      for (int i = 0; i < 1000; ++i) HybridPolicy::get<std::int64_t>(*t, p);
      EXPECT_FALSE(nd.ic_mode(pid));
      monitors.enter(*t, lock);
      monitors.exit(*t, lock);
    }
    t->clock.flush();
    sim::sleep_until(kMillisecond);
    out.byte_before = nd.presence_data()[pid];
    const std::uint64_t fetches = c.node(1).stats().get(Counter::kPageFetches);
    with_policy(kind, [&](auto policy) {
      using P = decltype(policy);
      P::template put<std::int64_t>(*t, p, 42);
    });
    out.byte_after = nd.presence_data()[pid];
    out.fetches = c.node(1).stats().get(Counter::kPageFetches) - fetches;
  });
  c.spawn_thread(1, "acquirer", [&] {
    auto t = dsm.make_thread(1);
    sim::sleep_until(enter_at);
    monitors.enter(*t, lock);
    monitors.exit(*t, lock);
  });
  c.run();
  out.live_twins = nd.live_twins();
  return out;  // ~DsmSystem: the NodeDsm destructor checks its twins
}

// B's grant lands inside A's window for enter_at in [1.060, 1.070) ms under
// both protocols; 1.065 ms sits in the middle.
void expect_store_window_leaves_no_twin(ProtocolKind kind) {
  const StoreRace r =
      store_miss_across_invalidation(kind, kMillisecond + 65 * kMicrosecond);
  const int pf_mode = kind == ProtocolKind::kHybrid ? NodeDsm::kPfModeBit : 0;
  EXPECT_EQ(r.byte_before, pf_mode);  // absent, in pf mode
  EXPECT_EQ(r.fetches, 1u);
  // The window was hit: A's store returned with P absent again, and no
  // twin bit on its byte.
  EXPECT_EQ(r.byte_after, pf_mode);
  EXPECT_EQ(r.byte_after & (NodeDsm::kTwinBit | NodeDsm::kTwinBytesBit), 0);
  EXPECT_EQ(r.live_twins, 0u);
}

TEST(TwinBytes, StoreMissRacingAnInvalidationTwinsNoAbsentPageJavaPf) {
  expect_store_window_leaves_no_twin(ProtocolKind::kJavaPf);
}

TEST(TwinBytes, StoreMissRacingAnInvalidationTwinsNoAbsentPageHybrid) {
  expect_store_window_leaves_no_twin(ProtocolKind::kHybrid);
}

// Flushes of twinned replicas (no HA). Node 1 reads pages P and Q, both
// homed on node 0. Under hybrid it reads each densely, so the fast path gives
// up ic mode and twins the present page (give_up_ic); under java_pf the fetch
// twins it. Neither page has twin bytes until it is stored to:
//   * the flush of two read-only replicas ships nothing, and charges the
//     same two diff scans as ever;
//   * a store to P takes P's bytes, and the flush ships exactly that word;
//   * a second thread on node 1 stores to Q, which the first one fetched:
//     that first store takes Q's bytes, and its flush ships the word too.
void flush_twinned_replicas(ProtocolKind kind) {
  cluster::Cluster c(cluster::ClusterParams::myrinet200(), 4);
  DsmSystem dsm(&c, std::size_t{1} << 20, kind);
  const std::size_t page = dsm.layout().page_bytes();
  const Gva p = dsm.alloc(0, 2 * page, page);
  const Gva q = p + page;
  const PageId pp = dsm.layout().page_of(p);
  const PageId qp = dsm.layout().page_of(q);
  NodeDsm& nd = dsm.node_dsm(1);
  const Stats& stats = c.node(1).stats();
  const Time diff = c.params().cpu.diff_cost(page);
  c.spawn_thread(1, "reader", [&] {
    auto t = dsm.make_thread(1);
    auto u = dsm.make_thread(1);
    with_policy(kind, [&](auto policy) {
      using P = decltype(policy);
      const int reads = kind == ProtocolKind::kHybrid ? 1000 : 1;
      for (Gva a : {p, q}) {
        for (int i = 0; i < reads; ++i) EXPECT_EQ((P::template get<std::int64_t>(*t, a)), 0);
      }
      ASSERT_EQ(nd.live_twins(), 2u);
      for (PageId pg : {pp, qp}) {
        EXPECT_TRUE(nd.has_twin(pg));
        EXPECT_FALSE(nd.has_twin_bytes(pg));
      }

      // Read only: no runs, no message, two diff scans' time.
      t->clock.flush();
      const Time at = c.engine().now();
      dsm.update_main_memory(*t);
      EXPECT_EQ(c.engine().now() - at, 2 * diff);
      EXPECT_EQ(stats.get(Counter::kDiffWords), 0u);
      EXPECT_EQ(stats.get(Counter::kUpdatesSent), 0u);

      // The first store to P takes its bytes; the flush ships that word.
      P::template put<std::int64_t>(*t, p + 16, 7);
      EXPECT_TRUE(nd.has_twin_bytes(pp));
      EXPECT_FALSE(nd.has_twin_bytes(qp));
      dsm.update_main_memory(*t);
      EXPECT_EQ(stats.get(Counter::kDiffWords), 1u);
      EXPECT_EQ(stats.get(Counter::kUpdatesSent), 1u);
      EXPECT_EQ(stats.get(Counter::kUpdateBytes), 4u + 8 + 4 + 8);  // one one-word run
      EXPECT_EQ(dsm.read_home<std::int64_t>(p + 16), 7);

      // A sibling's first store to Q, a page it did not fetch.
      const std::uint64_t fetches = stats.get(Counter::kPageFetches);
      P::template put<std::int64_t>(*u, q + 40, 9);
      EXPECT_EQ(stats.get(Counter::kPageFetches), fetches);
      EXPECT_TRUE(nd.has_twin_bytes(qp));
      dsm.update_main_memory(*u);
      EXPECT_EQ(stats.get(Counter::kDiffWords), 2u);
      EXPECT_EQ(stats.get(Counter::kUpdatesSent), 2u);
      EXPECT_EQ(dsm.read_home<std::int64_t>(q + 40), 9);
      EXPECT_EQ(dsm.read_home<std::int64_t>(p + 16), 7);
    });
  });
  c.run();
  EXPECT_EQ(nd.live_twins(), 2u);  // freed by ~NodeDsm, which checks them
}

TEST(TwinBytes, JavaPfReplicaTakesItsTwinBytesAtTheFirstStore) {
  flush_twinned_replicas(ProtocolKind::kJavaPf);
}

TEST(TwinBytes, HybridReplicaTakesItsTwinBytesAtTheFirstStoreAfterGivingUpIc) {
  flush_twinned_replicas(ProtocolKind::kHybrid);
}

// HA on (a crash far beyond the run's end) makes hybrid cohorts page-pure.
// Node 0 stores one element on each of 300 pages homed on node 1 inside one
// synchronized block: 300 cohorts, each delivered at the first attempt.
// `dense_reads_first` reads every page 2000 times before the block, which
// flips the pages to pf mode, so the stores travel as twin-diff runs instead
// of write-log fields.
void flush_three_hundred_pages(bool dense_reads_first) {
  constexpr std::int64_t kPages = 300;
  hyperion::VmConfig cfg;
  cfg.cluster.fault = cluster::FaultProfile::parse("crash3@5000ms+1ms,seed=7");
  cfg.nodes = 4;
  cfg.protocol = ProtocolKind::kHybrid;
  cfg.region_bytes = std::size_t{16} << 20;
  hyperion::HyperionVM vm(cfg);
  const std::int64_t stride =
      static_cast<std::int64_t>(vm.dsm().layout().page_bytes() / sizeof(std::int64_t));
  vm.run_main([&](hyperion::JavaEnv& main) {
    main.migrate_to(1);
    auto arr = main.new_array<std::int64_t>(kPages * stride);
    main.migrate_to(0);
    auto lock = main.new_cell<std::int64_t>(0);
    hyperion::Mem<HybridPolicy> mem(main.ctx());
    if (dense_reads_first) {
      for (std::int64_t i = 0; i < kPages; ++i) {
        for (int r = 0; r < 2000; ++r) mem.aget(arr, i * stride);
      }
    }
    const Stats before = vm.stats();
    main.synchronized(lock.addr, [&] {
      for (std::int64_t i = 0; i < kPages; ++i) mem.aput(arr, i * stride, i + 1);
    });
    const Stats after = vm.stats();
    const Counter lane = dense_reads_first ? Counter::kDiffWords : Counter::kWriteLogEntries;
    EXPECT_EQ(after.get(lane) - before.get(lane), std::uint64_t{kPages});
    EXPECT_EQ(after.get(Counter::kUpdatesSent) - before.get(Counter::kUpdatesSent),
              std::uint64_t{kPages});
    for (std::int64_t i = 0; i < kPages; ++i) {
      ASSERT_EQ(vm.dsm().read_home<std::int64_t>(arr.elem(i * stride)), i + 1) << i;
    }
  });
  ASSERT_NE(vm.ha(), nullptr);
}

TEST(FlushGuard, HybridHaFlushShipsAFieldCohortPerPageForThreeHundredPages) {
  flush_three_hundred_pages(/*dense_reads_first=*/false);
}

TEST(FlushGuard, HybridHaFlushShipsARunCohortPerPageForThreeHundredPages) {
  flush_three_hundred_pages(/*dense_reads_first=*/true);
}

}  // namespace
}  // namespace hyp::dsm
