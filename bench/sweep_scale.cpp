// sweep_scale: does the simulator itself scale to big clusters?
//
// Every other bench binary reports *virtual* time at paper-era node counts
// (1-12). This harness sweeps the node axis well past the paper — default
// N in {8, 32, 128, 256, 1024} — under two workloads:
//
//   * Jacobi at the paper's 1024x1024 mesh (~10^6 shared doubles): the
//     memory-scale driver. A dense per-pair or per-node-squared structure
//     anywhere in the stack shows up immediately as super-linear host RSS.
//   * Barnes: the protocol-gap curve. The paper's java_pf-vs-java_ic gap is
//     measured at <= 12 nodes; this extends the curve to 1024 to show where
//     the irregular tree traffic stops rewarding prefetching.
//
// Every N runs both workloads under java_ic, java_pf and hybrid. Per point
// the harness reports virtual seconds, the java_ic/java_pf gap, host
// events/sec, host peak RSS (getrusage: the process's high-water mark so
// far, so a point that peaks below an earlier one reads that one's peak;
// points run in ascending N order), the minor page faults the point took
// (the kernel's share of its host time), and — when a
// --fault-profile is given — fault counts, checkpoint traffic and the
// failure detector's share of engine events. Everything lands in the
// hyp-metrics-v1 JSON (--metrics-out), host fields included, so two sweeps
// gate against each other with scripts/compare_metrics.py.
//
// Exit code: 0 when every point's answer matches its serial reference
// (within fp-merge-order tolerance), 1 otherwise.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "apps/barnes.hpp"
#include "apps/jacobi.hpp"
#include "common/table.hpp"
#include "fig_common.hpp"

namespace {

using namespace hyp;
using Clock = std::chrono::steady_clock;

std::vector<int> parse_nodes(const std::string& spec) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = spec.substr(pos, comma - pos);
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || v < 1) {
      std::fprintf(stderr, "sweep_scale: bad --nodes entry '%s'\n", tok.c_str());
      std::exit(2);
    }
    out.push_back(static_cast<int>(v));
    pos = comma + 1;
  }
  if (out.empty()) {
    std::fprintf(stderr, "sweep_scale: --nodes must name at least one value\n");
    std::exit(2);
  }
  return out;
}

struct rusage self_usage() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

struct ScalePoint {
  std::string workload;
  std::string protocol;
  int nodes = 0;
  double value = 0;
  double reference = 0;
  Time elapsed = 0;
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t rss_kb = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t promotions = 0;
  std::uint64_t ckpt_msgs = 0;
  std::uint64_t ckpt_bytes = 0;

  bool stable() const { return bench::matches_reference(value, reference); }
  std::uint64_t events_per_sec() const {
    return wall_s > 0 ? static_cast<std::uint64_t>(static_cast<double>(events) / wall_s)
                      : 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "sweep_scale — host memory / throughput and the protocol gap as the "
      "cluster grows past the paper's 12 nodes (docs/SCALING.md)");
  bench::ObsRecorder::add_flags(cli);
  cli.flag_string("cluster", "myri200", "cluster preset (myri200 or sci450)")
      .flag_string("nodes", "8,32,128,256,1024", "node counts, ascending")
      .flag_int("jacobi-n", 1024, "Jacobi mesh edge (1024 = the paper's ~10^6 objects)")
      .flag_int("jacobi-steps", 2, "Jacobi time steps per point")
      .flag_int("barnes-bodies", 2048, "Barnes bodies (must be >= the largest N)")
      .flag_int("barnes-steps", 2, "Barnes time steps per point")
      .flag_bool("quick", false, "CI smoke: N in {8,64}, reduced problem sizes");
  if (!cli.parse(argc, argv)) return 0;

  const bool quick = cli.get_bool("quick");
  const std::string cluster = cli.get_string("cluster");
  const std::vector<int> node_counts =
      quick ? std::vector<int>{8, 64} : parse_nodes(cli.get_string("nodes"));

  apps::JacobiParams jp;
  jp.n = quick ? 256 : static_cast<int>(cli.get_int("jacobi-n"));
  jp.steps = quick ? 2 : static_cast<int>(cli.get_int("jacobi-steps"));
  apps::BarnesParams bp;
  bp.bodies = quick ? 512 : static_cast<int>(cli.get_int("barnes-bodies"));
  bp.steps = quick ? 1 : static_cast<int>(cli.get_int("barnes-steps"));
  for (int n : node_counts) {
    if (bp.bodies < n) {
      std::fprintf(stderr, "sweep_scale: --barnes-bodies (%d) must be >= the largest N (%d)\n",
                   bp.bodies, n);
      return 2;
    }
  }

  bench::ObsRecorder obs;
  obs.configure(cli, "sweep_scale");

  std::printf("# sweep_scale — %s, jacobi %dx%d/%d steps, barnes %d bodies/%d steps\n\n",
              cluster.c_str(), jp.n, jp.n, jp.steps, bp.bodies, bp.steps);

  // Serial references, once per workload.
  const double jacobi_ref = apps::jacobi_serial(jp);
  const double barnes_ref = apps::barnes_serial(bp);

  // The shared region is statically partitioned into one allocation zone per
  // node (dsm/address.hpp) and Barnes roots its whole octree in node 0's
  // zone, so the region must grow with N to keep any single zone >= ~2 MB.
  // The page size grows with it, capping total page count: the per-node
  // presence/twin tables are O(pages) each, so a capped page count keeps
  // that metadata linear — not quadratic — in N.
  auto config_for = [&](dsm::ProtocolKind kind, int nodes) {
    const std::size_t region = std::max<std::size_t>(
        std::size_t{256} << 20, static_cast<std::size_t>(nodes) << 21);
    apps::VmConfig cfg = apps::make_config(cluster, kind, nodes, region);
    while (region / cfg.cluster.page_bytes > 65536) cfg.cluster.page_bytes *= 2;
    return cfg;
  };

  std::vector<ScalePoint> points;
  auto run_point = [&](const char* workload, dsm::ProtocolKind kind, int nodes,
                       double reference, auto&& runner) {
    apps::VmConfig cfg = config_for(kind, nodes);
    obs.attach(cfg);
    const struct rusage before = self_usage();
    const auto t0 = Clock::now();
    const apps::RunResult r = runner(cfg);
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    const struct rusage after = self_usage();

    ScalePoint p;
    p.workload = workload;
    p.protocol = dsm::protocol_name(kind);
    p.nodes = nodes;
    p.value = r.value;
    p.reference = reference;
    p.elapsed = r.elapsed;
    p.wall_s = wall;
    p.events = r.events_processed;
    p.rss_kb = static_cast<std::uint64_t>(after.ru_maxrss);  // KB on Linux
    p.minor_faults = static_cast<std::uint64_t>(after.ru_minflt - before.ru_minflt);
    const auto counters = r.stats.nonzero();
    auto cnt = [&](const char* name) {
      auto it = counters.find(name);
      return it == counters.end() ? std::uint64_t{0} : it->second;
    };
    p.heartbeats = cnt("ha_heartbeats");
    p.retransmits = cnt("retransmits");
    p.timeouts = cnt("rpc_timeouts");
    p.promotions = cnt("ha_promotions");
    p.ckpt_msgs = cnt("ha_checkpoint_msgs");
    p.ckpt_bytes = cnt("ha_checkpoint_bytes");

    if (obs.active()) {
      obs::MetricsPoint mp;
      mp.cluster = cluster;
      mp.protocol = p.protocol;
      mp.nodes = nodes;
      mp.label = workload;
      mp.elapsed = r.elapsed;
      mp.value = r.value;
      mp.has_value = true;
      mp.stats = r.stats;
      mp.has_host = true;
      mp.host_wall_s = wall;
      mp.host_events = p.events;
      mp.host_events_per_sec = p.events_per_sec();
      mp.host_peak_rss_kb = p.rss_kb;
      mp.host_minor_faults = p.minor_faults;
      obs.capture(std::move(mp));
    }
    std::printf("  ran %s/%s N=%d: %.3f virtual s, %.2f wall s, rss %" PRIu64
                " KB, %" PRIu64 " minor faults\n",
                workload, p.protocol.c_str(), nodes, to_seconds(p.elapsed), wall, p.rss_kb,
                p.minor_faults);
    points.push_back(p);
    return p;
  };

  // Ascending N, so each peak-RSS reading belongs to its point.
  for (int n : node_counts) {
    // The paper's 1024^2 mesh has 1022 interior rows — at N=1024 that is
    // fewer rows than nodes, so cap the worker count (the checksum is
    // thread-count independent up to fp merge order).
    apps::JacobiParams jpp = jp;
    if (jp.n - 2 < n) jpp.threads = jp.n - 2;
    for (auto kind :
         {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf, dsm::ProtocolKind::kHybrid}) {
      run_point("jacobi", kind, n, jacobi_ref,
                [&](const apps::VmConfig& cfg) { return apps::jacobi_parallel(cfg, jpp); });
      run_point("barnes", kind, n, barnes_ref,
                [&](const apps::VmConfig& cfg) { return apps::barnes_parallel(cfg, bp); });
    }
  }

  // --- per-point table -------------------------------------------------------
  const bool faulty = obs.fault_wanted();
  std::vector<std::string> cols = {"workload",   "N",          "protocol",
                                   "stable",     "virtual s",  "events/sec",
                                   "peak RSS (MB)", "minor faults"};
  if (faulty) {
    cols.insert(cols.end(),
                {"heartbeats", "retransmits", "timeouts", "promotions", "ckpt msgs"});
  }
  Table table(cols);
  bool stable = true;
  for (const auto& p : points) {
    stable = stable && p.stable();
    std::vector<std::string> row = {
        p.workload,
        fmt_u64(static_cast<std::uint64_t>(p.nodes)),
        p.protocol,
        p.stable() ? "yes" : "NO",
        fmt_double(to_seconds(p.elapsed), 6),
        fmt_u64(p.events_per_sec()),
        fmt_double(static_cast<double>(p.rss_kb) / 1024.0, 1),
        fmt_u64(p.minor_faults)};
    if (faulty) {
      row.push_back(fmt_u64(p.heartbeats));
      row.push_back(fmt_u64(p.retransmits));
      row.push_back(fmt_u64(p.timeouts));
      row.push_back(fmt_u64(p.promotions));
      row.push_back(fmt_u64(p.ckpt_msgs));
    }
    table.add_row(row);
  }
  std::printf("\n");
  table.write_pretty(std::cout);

  // --- protocol-gap curve ----------------------------------------------------
  auto find = [&](const char* workload, const char* proto, int n) -> const ScalePoint* {
    for (const auto& p : points) {
      if (p.workload == workload && p.protocol == proto && p.nodes == n) return &p;
    }
    return nullptr;
  };
  Table gap({"workload", "N", "java_ic (s)", "java_pf (s)", "gap"});
  for (const char* workload : {"jacobi", "barnes"}) {
    for (int n : node_counts) {
      const ScalePoint* ic = find(workload, "java_ic", n);
      const ScalePoint* pf = find(workload, "java_pf", n);
      if (ic == nullptr || pf == nullptr) continue;
      const double ic_s = to_seconds(ic->elapsed);
      const double pf_s = to_seconds(pf->elapsed);
      const double g = ic_s > 0 ? (ic_s - pf_s) / ic_s * 100.0 : 0.0;
      char gs[32];
      std::snprintf(gs, sizeof(gs), "%+.1f%%", g);
      gap.add_row({workload, fmt_u64(static_cast<std::uint64_t>(n)), fmt_double(ic_s, 6),
                   fmt_double(pf_s, 6), gs});
    }
  }
  std::printf("\n");
  gap.write_pretty(std::cout);

  // --- memory scaling --------------------------------------------------------
  // Fit the peak-RSS growth exponent over the sweep's extremes: RSS ~ N^k.
  // A dense pair matrix gives k -> 2; traffic-linear structures keep k well
  // below 1 (most of the footprint is the workload itself, not the cluster).
  if (node_counts.size() >= 2) {
    const int n_lo = node_counts.front();
    const int n_hi = node_counts.back();
    const ScalePoint* lo = find("barnes", "java_pf", n_lo);
    const ScalePoint* hi = find("barnes", "java_pf", n_hi);
    if (lo != nullptr && hi != nullptr && lo->rss_kb > 0 && n_hi > n_lo) {
      const double k = std::log(static_cast<double>(hi->rss_kb) /
                                static_cast<double>(lo->rss_kb)) /
                       std::log(static_cast<double>(n_hi) / static_cast<double>(n_lo));
      std::printf("\npeak RSS scaling: %" PRIu64 " KB @ N=%d -> %" PRIu64
                  " KB @ N=%d (exponent %.2f; dense pair state would be ~2)\n",
                  lo->rss_kb, n_lo, hi->rss_kb, n_hi, k);
    }
  }

  std::printf("\nanswer stability: %s\n",
              stable ? "every point matched its serial reference"
                     : "DIVERGED — see table");

  obs.finish();
  return stable ? 0 : 1;
}
