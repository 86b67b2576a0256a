// Serving subsystem tests (docs/SERVING.md): the deterministic workload
// generator, the store harness against its serial reference, the measurement
// window, and the serve determinism golden — which pins a fault-free, a
// mid-run-crash and a partition cell under both protocols to recorded bits
// (byte-identical same-seed contract, including latency quantiles).
//
// Re-recording (only after an intentional semantic change — say why in the
// commit message):
//   HYP_UPDATE_GOLDENS=1 ./serve_tests
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/params.hpp"
#include "cluster/trace.hpp"
#include "serve/serve.hpp"
#include "test_util.hpp"

namespace hyp::serve {
namespace {

#ifndef HYP_SERVE_GOLDEN_FILE
#error "HYP_SERVE_GOLDEN_FILE must point at the recorded goldens"
#endif

// ---------------------------------------------------------------- workload

TEST(ServeWorkload, DetMathTracksLibm) {
  for (double x : {1e-6, 0.1, 0.5, 0.9999, 1.0, 1.5, 2.0, 10.0, 12345.678}) {
    const double want = std::log(x);
    EXPECT_NEAR(det_ln(x), want, std::abs(want) * 1e-12 + 1e-12) << "ln " << x;
  }
  for (double x : {-20.0, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0, 20.0}) {
    const double want = std::exp(x);
    EXPECT_NEAR(det_exp(x), want, want * 1e-12) << "exp " << x;
  }
  EXPECT_DOUBLE_EQ(det_pow(2.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(det_pow(0.0, 3.0), 0.0);
  for (double b : {0.5, 2.0, 3.0, 4096.0}) {
    for (double e : {-0.99, 0.01, 0.5, 1.0, 2.5}) {
      const double want = std::pow(b, e);
      EXPECT_NEAR(det_pow(b, e), want, want * 1e-12) << b << "^" << e;
    }
  }
}

TEST(ServeWorkload, ClientStreamsAreSeedDeterministic) {
  WorkloadParams p;
  p.keys = 256;
  p.theta = 0.9;
  p.read_pct = 80;
  p.ops_per_client = 500;
  p.rate_ops_per_s = 10000;
  p.seed = 42;

  const auto a = client_ops(p, 3);
  const auto b = client_ops(p, 3);
  ASSERT_EQ(a.size(), p.ops_per_client);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].is_update, b[i].is_update);
    EXPECT_EQ(a[i].delta, b[i].delta);
  }

  // Arrivals are an ascending Poisson schedule over in-range keys; updates
  // carry a positive delta, reads none.
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
    EXPECT_LT(a[i].key, p.keys);
    if (a[i].is_update) {
      EXPECT_GT(a[i].delta, 0);
    } else {
      EXPECT_EQ(a[i].delta, 0);
    }
  }

  // Different clients draw from independent streams.
  const auto c = client_ops(p, 4);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].key != c[i].key || a[i].arrival != c[i].arrival;
  }
  EXPECT_TRUE(differs) << "client 3 and client 4 generated identical streams";

  // A different seed reshuffles a given client's stream.
  WorkloadParams p2 = p;
  p2.seed = 43;
  const auto d = client_ops(p2, 3);
  differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].key != d[i].key || a[i].arrival != d[i].arrival;
  }
  EXPECT_TRUE(differs) << "seed change did not move client 3's stream";
}

TEST(ServeWorkload, ThetaZeroDegeneratesToExactUniform) {
  // Not just statistically uniform: ZipfGenerator(n, 0) must consume the rng
  // exactly like rng.below(n), bit for bit, draw for draw.
  const std::uint64_t n = 1024;
  const ZipfGenerator zipf(n, 0.0);
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(zipf.next(a), b.below(n)) << "draw " << i;
  }
}

TEST(ServeWorkload, ZipfConstantCacheIsBitIdentical) {
  // The constructor memoizes the O(n) zetan constants per exact (n, theta).
  // The first generator computes cold and seeds the cache; later generators
  // hit it — and must sample the very same bits, draw for draw.
  const std::uint64_t n = 4099;  // an (n, theta) pair no other test uses
  const double theta = 0.77;
  const ZipfGenerator cold(n, theta);
  const ZipfGenerator cached(n, theta);
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(cold.next(a), cached.next(b)) << "draw " << i;
  }

  // Distinct (n, theta) entries don't cross-contaminate: constructing another
  // shape in between leaves the original's cached stream untouched.
  const ZipfGenerator other(n / 2, 0.5);
  EXPECT_EQ(other.n(), n / 2);
  const ZipfGenerator cached2(n, theta);
  Rng d(123);
  Rng e(123);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(cold.next(d), cached2.next(e)) << "draw " << i;
  }
}

TEST(ServeWorkload, ZipfSkewConcentratesOnHotKeys) {
  const std::uint64_t n = 1024;
  const int draws = 20000;
  const ZipfGenerator zipf(n, 0.99);
  Rng rng(7);
  std::vector<int> hits(n, 0);
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t k = zipf.next(rng);
    ASSERT_LT(k, n);
    ++hits[k];
  }
  // Key 0 is the hottest: with theta=0.99 it draws >10% of the traffic, far
  // above the uniform share of draws/n (~20 here).
  EXPECT_GT(hits[0], 5 * draws / static_cast<int>(n));
  EXPECT_GT(hits[0], hits[n - 1]);
}

TEST(ServeWorkload, SerialReferenceAccountsEveryOp) {
  WorkloadParams p;
  p.keys = 128;
  p.theta = 0.99;
  p.read_pct = 70;
  p.ops_per_client = 300;
  p.seed = 5;
  const int clients = 4;

  const Reference ref = serial_reference(p, clients);
  EXPECT_EQ(ref.reads + ref.updates,
            static_cast<std::uint64_t>(clients) * p.ops_per_client);

  // The reference's final per-key sums are exactly the replayed deltas.
  std::int64_t want_total = 0;
  std::uint64_t want_updates = 0;
  Time want_last = 0;
  for (int c = 0; c < clients; ++c) {
    for (const Op& op : client_ops(p, c)) {
      if (op.is_update) {
        want_total += op.delta;
        ++want_updates;
      }
      if (op.arrival > want_last) want_last = op.arrival;
    }
  }
  std::int64_t got_total = 0;
  for (std::int64_t v : ref.final_value) got_total += v;
  EXPECT_EQ(got_total, want_total);
  EXPECT_EQ(ref.updates, want_updates);
  EXPECT_EQ(ref.last_arrival, want_last);

  EXPECT_EQ(ref.checksum(), serial_reference(p, clients).checksum());
  EXPECT_EQ(ref.checksum(), state_checksum(ref.final_value));
}

// ----------------------------------------------------------------- harness

// Small but loaded serving point: 512 keys over 2 nodes, 150 ops per client
// at 4000 ops/s gives a ~37 ms horizon — long enough for the golden's crash
// (10ms+8ms) and partition (10ms+6ms) windows to land mid-run.
ServeParams small_params() {
  ServeParams p;
  p.keys = 512;
  p.theta = 0.99;
  p.read_pct = 80;
  p.clients_per_node = 1;
  p.ops_per_client = 150;
  p.rate_ops_per_s = 4000;
  p.shards_per_node = 2;
  p.op_cycles = 2000;
  p.seed = 7;
  return p;
}

void expect_clean(const ServeResult& r, std::uint64_t total_ops) {
  EXPECT_TRUE(r.state_ok) << r.lost_keys << " keys diverged from the serial "
                          << "reference (lost acked writes)";
  EXPECT_EQ(r.checksum, r.expected_checksum);
  EXPECT_EQ(r.ops, total_ops);
  EXPECT_EQ(r.reads + r.updates, r.ops);
  EXPECT_GT(r.throughput_ops_s, 0.0);
  EXPECT_LE(r.p50_us, r.p99_us);
  EXPECT_LE(r.p99_us, r.p999_us);
  EXPECT_LE(r.p999_us, r.max_us);
}

TEST(ServeHarness, FaultFreeMatchesSerialReferenceAllProtocols) {
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf,
                    dsm::ProtocolKind::kHybrid}) {
    const auto cfg = apps::make_config("myri200", kind, 2);
    const ServeParams p = small_params();
    const ServeResult r = run_serve(cfg, p);
    expect_clean(r, 2 * p.ops_per_client);
    EXPECT_EQ(r.excluded, 0u) << "no window configured, nothing may be excluded";
  }
}

// The hybrid acceptance cell: a dominant writer concentrates the update
// traffic on one node, heat migration moves the hot keys' homes there, and
// then that very node is killed mid-run — the migrated homes must revert
// (dsm::DsmSystem::on_node_dead) without losing a single acked write.
TEST(ServeHarness, HotWriterMigrationSurvivesWriterCrash) {
  apps::VmConfig cfg = apps::make_config("myri200", dsm::ProtocolKind::kHybrid, 4);
  cfg.cluster.fault =
      cluster::FaultProfile::parse("replicas=2,crash1@30ms+10ms,seed=7");
  ServeParams p;
  p.keys = 64;               // few keys: the Zipf head concentrates hard
  p.theta = 0.99;
  p.read_pct = 10;           // write-heavy, so heat accumulates fast
  p.clients_per_node = 2;
  p.ops_per_client = 300;
  p.rate_ops_per_s = 10000;  // ~30 ms horizon: migration streak, then crash
  p.shards_per_node = 2;
  p.op_cycles = 2000;
  p.seed = 7;
  p.writer_node = 1;         // all updates come from the node that will die

  const ServeResult r = run_serve(cfg, p);
  EXPECT_TRUE(r.state_ok) << r.lost_keys << " keys diverged (lost acked writes)";
  EXPECT_EQ(r.checksum, r.expected_checksum);
  // The cell is only meaningful if homes actually migrated toward the writer
  // before the crash forced them back.
  EXPECT_GT(r.run.stats.get_named("dsm_home_migrations"), 0u);
  EXPECT_GT(r.run.stats.get_named("dsm_migrations_reverted"), 0u);
}

TEST(ServeHarness, MeasurementWindowTrimsWarmupAndCooldown) {
  const auto cfg = apps::make_config("myri200", dsm::ProtocolKind::kJavaIc, 2);
  ServeParams p = small_params();
  const ServeResult base = run_serve(cfg, p);
  EXPECT_EQ(base.excluded, 0u);  // the window option is off by default

  p.warmup = 8 * kMillisecond;
  p.cooldown = 8 * kMillisecond;
  const ServeResult win = run_serve(cfg, p);

  // Trimming changes only what is *measured*: every op still executes, the
  // final state still matches the serial reference.
  EXPECT_TRUE(win.state_ok);
  EXPECT_EQ(win.ops, base.ops);
  EXPECT_GT(win.excluded, 0u);
  EXPECT_LT(win.excluded, win.ops);
  EXPECT_EQ(win.window_start, base.window_start + p.warmup);
  EXPECT_EQ(win.window_end, base.window_end - p.cooldown);

  // The latency histograms hold exactly the measured ops.
  const Stats& st = win.run.stats;
  EXPECT_EQ(st.hist(Hist::kServeReadLatency).count() +
                st.hist(Hist::kServeUpdateLatency).count(),
            win.ops - win.excluded);
  EXPECT_EQ(win.run.stats.get(Counter::kServeExcluded), win.excluded);
}

// ------------------------------------------------------------------ golden

struct ServePoint {
  const char* profile;  // none | crash | partition
  dsm::ProtocolKind protocol;
};

std::vector<ServePoint> golden_points() {
  std::vector<ServePoint> pts;
  for (const char* profile : {"none", "crash", "partition"}) {
    for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf}) {
      pts.push_back({profile, kind});
    }
  }
  return pts;
}

ServeResult run_point(const ServePoint& pt) {
  apps::VmConfig cfg = apps::make_config("myri200", pt.protocol, 4);
  if (std::strcmp(pt.profile, "crash") == 0) {
    cfg.cluster.fault =
        cluster::FaultProfile::parse("replicas=2,crash1@10ms+8ms,seed=7");
  } else if (std::strcmp(pt.profile, "partition") == 0) {
    cfg.cluster.fault =
        cluster::FaultProfile::parse("partition@10ms+6ms:1|0.2.3,seed=7");
  }
  return run_serve(cfg, small_params());
}

// One golden line:
//   <profile> <protocol> value_bits=<u64> elapsed=<u64> events=<u64>
//   switches=<u64> <counter>=<u64>...
// value is the store-state checksum, and the stat counters include the
// serve_p50_us/p99/p999/throughput summary rows — the golden therefore pins
// the latency quantiles, not just the final state.
std::string golden_line(const ServePoint& pt, const ServeResult& r) {
  std::uint64_t value_bits = 0;
  static_assert(sizeof(value_bits) == sizeof(r.run.value));
  std::memcpy(&value_bits, &r.run.value, sizeof(value_bits));
  std::ostringstream os;
  os << pt.profile << ' ' << dsm::protocol_name(pt.protocol)
     << " value_bits=" << value_bits << " elapsed=" << r.run.elapsed
     << " events=" << r.run.events_processed
     << " switches=" << r.run.context_switches;
  for (const auto& [name, v] : r.run.stats.nonzero()) os << ' ' << name << '=' << v;
  return os.str();
}

std::string point_key(const ServePoint& pt) {
  return std::string(pt.profile) + ' ' + dsm::protocol_name(pt.protocol);
}

TEST(ServeGolden, AllCellsBitIdentical) {
  std::vector<std::string> lines;
  for (const auto& pt : golden_points()) {
    const ServeResult r = run_point(pt);
    // Every golden cell — including the crash and partition ones — must hold
    // the zero-lost-acked-writes contract before its bits are worth pinning.
    EXPECT_TRUE(r.state_ok) << point_key(pt) << ": " << r.lost_keys
                            << " keys diverged";
    lines.push_back(golden_line(pt, r));
  }
  // Key = first two tokens (profile, protocol).
  expect_golden(HYP_SERVE_GOLDEN_FILE,
                "# Serve determinism goldens: 512-key store on myri200 x 4 nodes,\n"
                "# 4 clients x 150 ops @ 4000 ops/s, theta=0.99, read%=80, seed=7;\n"
                "# cells = {fault-free, crash1@10ms+8ms K=2, partition@10ms+6ms\n"
                "# 1|0.2.3} x both protocols. Regenerate with\n"
                "# HYP_UPDATE_GOLDENS=1 ./serve_tests -- and justify the semantic\n"
                "# change in the commit message.\n",
                lines, 2);
}

// ------------------------------------------------------------- trace golden
//
// The counter goldens above pin totals; this one pins the order and the
// timestamp of every protocol event of one lossy cell: each drop, dup
// suppression, retransmit, fetch, update and promotion. One line per
// protocol:
//   <protocol> records=<n> fnv1a=<hex>
// where fnv1a is the 64-bit FNV-1a hash of the TraceLog text dump.

#ifndef HYP_SERVE_TRACE_GOLDEN_FILE
#error "HYP_SERVE_TRACE_GOLDEN_FILE must point at the recorded trace goldens"
#endif

constexpr const char* kLossyTraceProfile =
    "drop1%,dup1%,reorder3us,replicas=2,partition@10ms+6ms:1|0.2.3,seed=7";

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string trace_golden_line(dsm::ProtocolKind kind) {
  apps::VmConfig cfg = apps::make_config("myri200", kind, 4);
  cfg.cluster.fault = cluster::FaultProfile::parse(kLossyTraceProfile);
  cluster::TraceLog trace(1 << 17);
  cfg.trace = &trace;
  const ServeResult r = run_serve(cfg, small_params());
  EXPECT_TRUE(r.state_ok) << dsm::protocol_name(kind) << ": " << r.lost_keys
                          << " keys diverged";
  EXPECT_EQ(trace.dropped(), 0u) << "the trace must hold the whole run";
  EXPECT_GT(r.run.stats.get(Counter::kRetransmits), 0u) << "the profile must bite";
  EXPECT_GT(r.run.stats.get(Counter::kDupSuppressed), 0u);
  std::ostringstream text;
  trace.write_text(text);
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(fnv1a(text.str())));
  std::ostringstream os;
  os << dsm::protocol_name(kind) << " records=" << trace.events().size() << " fnv1a=" << hash;
  return os.str();
}

TEST(ServeGolden, LossyCellTraceIsPinned) {
  std::vector<std::string> lines;
  for (auto kind : {dsm::ProtocolKind::kJavaPf, dsm::ProtocolKind::kHybrid}) {
    lines.push_back(trace_golden_line(kind));
  }
  // Key = the protocol.
  expect_golden(HYP_SERVE_TRACE_GOLDEN_FILE,
                std::string("# Serve trace goldens: the serve golden's store and workload under\n"
                            "# ") +
                    kLossyTraceProfile +
                    ";\n"
                    "# record count and FNV-1a of TraceLog::write_text per protocol.\n"
                    "# Regenerate with HYP_UPDATE_GOLDENS=1 ./serve_tests -- and justify\n"
                    "# the semantic change in the commit message.\n",
                lines, 1);
}

TEST(ServeGolden, BackToBackRunsIdentical) {
  // Same seed, same bits within one binary run — catches host-address-
  // dependent ordering leaking into the serving path. The crash cell is the
  // most schedule-sensitive one.
  const ServePoint pt{"crash", dsm::ProtocolKind::kJavaPf};
  const ServeResult a = run_point(pt);
  const ServeResult b = run_point(pt);
  EXPECT_EQ(golden_line(pt, a), golden_line(pt, b));
}

}  // namespace
}  // namespace hyp::serve
