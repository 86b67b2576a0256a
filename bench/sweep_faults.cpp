// sweep_faults: answer stability and retry-latency under injected faults.
//
// Three sweeps over the Pi benchmark (monitor-guarded global accumulator —
// the simplest workload that exercises both DSM updates and remote monitor
// RPCs):
//
//   1. drop-rate sweep — the answer must match the fault-free baseline at
//      every drop rate (the reliable transport hides loss; only timing may
//      move). One experiment point per (protocol, drop rate).
//   2. rto sweep — at a fixed drop rate, vary the initial retransmit timeout
//      and capture the per-point retry-latency histogram
//      (retry_latency_ps in the metrics JSON): the paper-style trade-off
//      between eager retransmits (more duplicate traffic) and patient ones
//      (longer stalls behind each loss).
//   3. replicas sweep — a fixed mid-run kill-and-recover, varying the chain
//      backup depth K (docs/RECOVERY.md): checkpoint traffic grows with K
//      (every zone streams to K backups) while the recovery overhead — the
//      virtual time the crash costs over the fault-free baseline — stays a
//      property of the crash window, not of K.
//   4. partition sweep — a fixed split window, varying the group topology
//      (docs/PARTITIONS.md): a minority-isolated home promotes on the
//      majority side, an even split parks both sides, and either way the
//      answers must match the fault-free baseline exactly. The table shows
//      the partition drops, kNoQuorum holds, epoch-fence rejects and quorum
//      reads each topology produced.
//
// Every point lands in the hyp-metrics-v1 JSON (--metrics-out), so two runs
// are diffable with scripts/compare_metrics.py, e.g.
//
//   sweep_faults --metrics-out a.json && sweep_faults --metrics-out b.json
//   scripts/compare_metrics.py a.json b.json          # bit-stable faults
//
// Exit code: 0 when every faulty answer equals its fault-free baseline and
// every recover/K point promoted exactly once, 1 otherwise (the tables show
// which point diverged; a run too short to reach the crash window promotes
// nothing). ctest runs the default sweep as sweep_faults_smoke.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "apps/pi.hpp"
#include "common/table.hpp"
#include "fig_common.hpp"

namespace {

using namespace hyp;

// "0.5,1,2" -> {0.5, 1.0, 2.0}; panics (exit) on garbage.
std::vector<double> parse_list(const std::string& spec, const char* flag) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string tok = spec.substr(pos, comma - pos);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0' || v < 0) {
      std::fprintf(stderr, "sweep_faults: bad --%s entry '%s'\n", flag, tok.c_str());
      std::exit(2);
    }
    out.push_back(v);
    pos = comma + 1;
  }
  if (out.empty()) {
    std::fprintf(stderr, "sweep_faults: --%s must name at least one value\n", flag);
    std::exit(2);
  }
  return out;
}

struct Point {
  std::string label;
  std::string protocol;
  double value = 0;
  double baseline = 0;
  Time elapsed = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retry_count = 0;  // retry-latency histogram entries
  Time retry_sum = 0;             // and their total wait
};

// One row of the replicas sweep (kill-and-recover with K chain backups).
struct RecoveryPoint {
  std::string label;
  std::string protocol;
  double value = 0;
  double baseline = 0;
  Time elapsed = 0;
  Time base_elapsed = 0;  // fault-free run; overhead = elapsed - base_elapsed
  std::uint64_t promotions = 0;
  std::uint64_t ckpt_msgs = 0;
  std::uint64_t ckpt_bytes = 0;
};

// One row of the partition sweep (split-brain topology under a fixed window).
struct PartitionPoint {
  std::string label;
  std::string protocol;
  double value = 0;
  double baseline = 0;
  Time elapsed = 0;
  Time base_elapsed = 0;
  std::uint64_t drops = 0;        // packets that died on a severed link
  std::uint64_t holds = 0;        // kNoQuorum parks on the minority side
  std::uint64_t fenced = 0;       // epoch-fenced stale requests/replies
  std::uint64_t quorum_reads = 0; // suspected-home reads served by backups
  std::uint64_t promotions = 0;
};

// "2|0.1.3,0.1|2.3" -> the individual a|b group specs (the specs themselves
// contain no commas, so the flag list splits cleanly).
std::vector<std::string> split_specs(const std::string& spec) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    if (comma > pos) out.push_back(spec.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "sweep_faults — answer stability vs. drop rate and retry latency vs. "
      "rto under the deterministic fault injector (docs/FAULTS.md)");
  bench::ObsRecorder::add_flags(cli);
  cli.flag_string("cluster", "myri200", "cluster preset (myri200 or sci450)")
      .flag_int("nodes", 4, "cluster size for every point")
      .flag_int("intervals", 200'000, "Pi Riemann intervals per run")
      // Pi exchanges only a few dozen messages per run, so sub-percent rates
      // rarely hit anything; the defaults are chosen to actually exercise the
      // retransmit path at the default problem size.
      .flag_string("drops", "2,5,10,20", "drop rates to sweep, in percent")
      .flag_string("rtos", "100,200,500", "initial rto values to sweep, in us")
      .flag_double("rto-drop", 10.0, "drop rate (percent) held fixed for the rto sweep")
      .flag_string("replicas", "1,2,3", "chain backup depths K for the recovery sweep")
      .flag_string("crash", "crash2@3ms+2ms",
                   "kill-and-recover window held fixed for the replicas sweep")
      .flag_string("partition", "2|0.1.3,0.1|2.3",
                   "partition group topologies to sweep (a|b specs, "
                   "comma-separated; empty disables the partition sweep)")
      .flag_string("partition-window", "3ms+2ms",
                   "split window held fixed for the partition sweep")
      .flag_int("seed", 7, "fault-injector seed shared by every faulty point");
  if (!cli.parse(argc, argv)) return 0;

  const std::string cluster = cli.get_string("cluster");
  const int nodes = cli.get_int("nodes");
  apps::PiParams pi;
  pi.intervals = cli.get_int("intervals");
  const auto drops = parse_list(cli.get_string("drops"), "drops");
  const auto rtos = parse_list(cli.get_string("rtos"), "rtos");
  const auto replicas = parse_list(cli.get_string("replicas"), "replicas");
  for (double k : replicas) {
    if (k < 1 || k != static_cast<double>(static_cast<std::uint32_t>(k))) {
      std::fprintf(stderr, "sweep_faults: --replicas entries must be integers >= 1\n");
      return 2;
    }
  }
  const auto partitions = split_specs(cli.get_string("partition"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  bench::ObsRecorder obs;
  obs.configure(cli, "sweep_faults");

  std::printf("# sweep_faults — %s, %d nodes, %" PRId64 " Pi intervals, seed=%" PRIu64 "\n\n",
              cluster.c_str(), nodes, static_cast<std::int64_t>(pi.intervals), seed);

  // One run; the fault profile is the experiment variable. The recorder's
  // own --fault-profile (if any) seeds the profile each point starts from,
  // so chaos ingredients (dup/reorder) can be layered underneath.
  auto run_point = [&](dsm::ProtocolKind kind, const cluster::FaultProfile& fault,
                       const std::string& label) {
    apps::VmConfig cfg = apps::make_config(cluster, kind, nodes);
    obs.attach(cfg);          // trace/heat/phases (+ recorder's base profile)
    cfg.cluster.fault = fault;  // the sweep variable wins
    const apps::RunResult r = apps::pi_parallel(cfg, pi);
    obs.capture_run(label, r, dsm::protocol_name(kind), nodes);
    return r;
  };

  auto fault_for = [&](double drop_pct, Time rto) {
    cluster::FaultProfile f = obs.fault();  // base ingredients from the flag
    f.drop_ppm = static_cast<std::uint32_t>(drop_pct * 10'000.0 + 0.5);
    f.seed = seed;
    if (rto != 0) f.rto_initial = rto;
    return f;
  };

  std::vector<Point> points;
  std::vector<RecoveryPoint> recovery_points;
  std::vector<PartitionPoint> partition_points;
  bool stable = true;
  bool recovered = true;  // every recover/K point promoted exactly once
  for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf,
                    dsm::ProtocolKind::kHybrid}) {
    const std::string proto = dsm::protocol_name(kind);
    const apps::RunResult base =
        run_point(kind, cluster::FaultProfile{}, "baseline/" + proto);

    auto record = [&](const apps::RunResult& r, const std::string& label) {
      Point p;
      p.label = label;
      p.protocol = proto;
      p.value = r.value;
      p.baseline = base.value;
      p.elapsed = r.elapsed;
      const auto counters = r.stats.nonzero();
      auto cnt = [&](const char* name) {
        auto it = counters.find(name);
        return it == counters.end() ? std::uint64_t{0} : it->second;
      };
      p.retransmits = cnt("retransmits");
      p.timeouts = cnt("rpc_timeouts");
      const auto& h = r.stats.hist(Hist::kRetryLatency);
      p.retry_count = h.count();
      p.retry_sum = static_cast<Time>(h.sum());
      stable = stable && (p.value == p.baseline);
      points.push_back(std::move(p));
    };

    // --- sweep 1: answer stability vs. drop rate ---------------------------
    for (double d : drops) {
      char label[64];
      std::snprintf(label, sizeof(label), "drop%g%%", d);
      record(run_point(kind, fault_for(d, 0), label), label);
    }
    // --- sweep 2: retry latency vs. rto ------------------------------------
    for (double rto_us : rtos) {
      const Time rto = static_cast<Time>(rto_us * kMicrosecond);
      char label[64];
      std::snprintf(label, sizeof(label), "drop%g%%/rto%gus", cli.get_double("rto-drop"),
                    rto_us);
      record(run_point(kind, fault_for(cli.get_double("rto-drop"), rto), label), label);
    }
    // --- sweep 3: kill-and-recover vs. chain backup depth K ----------------
    // The crash window is held fixed; K is the variable. Each point parses a
    // fresh profile (the chaos ingredients of the recorder's base profile
    // would perturb the recovery timing this sweep is isolating).
    for (double k : replicas) {
      char spec[128];
      std::snprintf(spec, sizeof(spec), "replicas=%u,%s,seed=%" PRIu64,
                    static_cast<unsigned>(k), cli.get_string("crash").c_str(), seed);
      char label[64];
      std::snprintf(label, sizeof(label), "recover/K=%u", static_cast<unsigned>(k));
      const apps::RunResult r =
          run_point(kind, cluster::FaultProfile::parse(spec), label);
      RecoveryPoint p;
      p.label = label;
      p.protocol = proto;
      p.value = r.value;
      p.baseline = base.value;
      p.elapsed = r.elapsed;
      p.base_elapsed = base.elapsed;
      const auto counters = r.stats.nonzero();
      auto cnt = [&](const char* name) {
        auto it = counters.find(name);
        return it == counters.end() ? std::uint64_t{0} : it->second;
      };
      p.promotions = cnt("ha_promotions");
      p.ckpt_msgs = cnt("ha_checkpoint_msgs");
      p.ckpt_bytes = cnt("ha_checkpoint_bytes");
      stable = stable && (p.value == p.baseline);
      recovered = recovered && p.promotions == 1;
      recovery_points.push_back(std::move(p));
    }
    // --- sweep 4: split-brain topology under a fixed partition window ------
    for (const std::string& groups : partitions) {
      char spec[160];
      std::snprintf(spec, sizeof(spec), "partition@%s:%s,seed=%" PRIu64,
                    cli.get_string("partition-window").c_str(), groups.c_str(), seed);
      const std::string label = "partition/" + groups;
      const apps::RunResult r =
          run_point(kind, cluster::FaultProfile::parse(spec), label);
      PartitionPoint p;
      p.label = label;
      p.protocol = proto;
      p.value = r.value;
      p.baseline = base.value;
      p.elapsed = r.elapsed;
      p.base_elapsed = base.elapsed;
      const auto counters = r.stats.nonzero();
      auto cnt = [&](const char* name) {
        auto it = counters.find(name);
        return it == counters.end() ? std::uint64_t{0} : it->second;
      };
      p.drops = cnt("ha_partition_drops");
      p.holds = cnt("ha_no_quorum_holds");
      p.fenced = cnt("ha_fenced_rejects");
      p.quorum_reads = cnt("ha_quorum_reads");
      p.promotions = cnt("ha_promotions");
      stable = stable && (p.value == p.baseline);
      partition_points.push_back(std::move(p));
    }
  }

  // --- answer-stability table ----------------------------------------------
  Table table({"point", "protocol", "value", "baseline", "stable", "seconds", "retransmits",
               "rpc_timeouts", "retries", "mean retry wait (us)"});
  for (const auto& p : points) {
    const double mean_us =
        p.retry_count == 0 ? 0.0
                           : static_cast<double>(p.retry_sum) /
                                 (static_cast<double>(p.retry_count) * kMicrosecond);
    table.add_row({p.label, p.protocol, fmt_double(p.value, 6), fmt_double(p.baseline, 6),
                   p.value == p.baseline ? "yes" : "NO", fmt_double(to_seconds(p.elapsed), 6),
                   fmt_u64(p.retransmits), fmt_u64(p.timeouts), fmt_u64(p.retry_count),
                   fmt_double(mean_us, 3)});
  }
  table.write_pretty(std::cout);

  // --- recovery-vs-K table ---------------------------------------------------
  Table rec({"point", "protocol", "value", "stable", "seconds", "recovery overhead (s)",
             "promotions", "ckpt msgs", "ckpt bytes"});
  for (const auto& p : recovery_points) {
    const double overhead =
        to_seconds(p.elapsed > p.base_elapsed ? p.elapsed - p.base_elapsed : 0);
    rec.add_row({p.label, p.protocol, fmt_double(p.value, 6),
                 p.value == p.baseline ? "yes" : "NO", fmt_double(to_seconds(p.elapsed), 6),
                 fmt_double(overhead, 6), fmt_u64(p.promotions), fmt_u64(p.ckpt_msgs),
                 fmt_u64(p.ckpt_bytes)});
  }
  std::printf("\n");
  rec.write_pretty(std::cout);

  // --- partition-topology table ----------------------------------------------
  if (!partition_points.empty()) {
    Table part({"point", "protocol", "value", "stable", "seconds", "split overhead (s)",
                "drops", "noquorum holds", "fenced", "quorum reads", "promotions"});
    for (const auto& p : partition_points) {
      const double overhead =
          to_seconds(p.elapsed > p.base_elapsed ? p.elapsed - p.base_elapsed : 0);
      part.add_row({p.label, p.protocol, fmt_double(p.value, 6),
                    p.value == p.baseline ? "yes" : "NO",
                    fmt_double(to_seconds(p.elapsed), 6), fmt_double(overhead, 6),
                    fmt_u64(p.drops), fmt_u64(p.holds), fmt_u64(p.fenced),
                    fmt_u64(p.quorum_reads), fmt_u64(p.promotions)});
    }
    std::printf("\n");
    part.write_pretty(std::cout);
  }

  std::printf("\nanswer stability: %s\n",
              stable ? "every faulty point reproduced its fault-free value"
                     : "DIVERGED — see table");
  std::printf("recovery: %s\n", recovered ? "every recover/K point promoted exactly once"
                                          : "FAILED — a recover/K point did not promote "
                                            "exactly once (see table)");

  obs.finish();
  return stable && recovered ? 0 : 1;
}
