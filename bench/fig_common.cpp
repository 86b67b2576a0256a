#include "fig_common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "common/table.hpp"
#include "obs/perfetto.hpp"

namespace hyp::bench {

// ---------------------------------------------------------------------------
// ObsRecorder

namespace {
// Hottest pages kept per metrics point (plenty to see a false-sharing page
// or a prefetch train without bloating the JSON).
constexpr std::size_t kHeatTopN = 16;
}  // namespace

void ObsRecorder::add_flags(Cli& cli) {
  cli.flag_string("trace-out", "",
                  "stream a Perfetto trace_events JSON of every run to FILE")
      .flag_string("metrics-out", "",
                   "write hyp-metrics-v1 JSON (counters, histograms, page heat, phases) to FILE")
      .flag_string("fault-profile", "",
                   "deterministic network fault injection, e.g. "
                   "drop2%,dup1%,reorder5us,seed=7 (docs/FAULTS.md; default off)")
      .flag_string("race-detect", "",
                   "vector-clock data-race detection: on|off[,racegran=field|page] "
                   "(docs/RACES.md; default off)")
      .flag_string("race-out", "",
                   "write the race report to FILE (requires --race-detect on)");
}

void ObsRecorder::configure(const Cli& cli, std::string tool) {
  tool_ = std::move(tool);
  trace_path_ = cli.get_string("trace-out");
  metrics_path_ = cli.get_string("metrics-out");
  const std::string fault_spec = cli.get_string("fault-profile");
  if (!fault_spec.empty()) {
    fault_ = cluster::FaultProfile::parse(fault_spec);
  }
  if (fault_.any()) {
    std::printf("# fault profile: %s\n", fault_.to_string().c_str());
  }
  const std::string race_spec = cli.get_string("race-detect");
  if (!race_spec.empty()) {
    race_cfg_ = obs::RaceConfig::parse(race_spec);  // exits 2 on junk
  }
  race_path_ = cli.get_string("race-out");
  if (!race_path_.empty() && !race_cfg_.enabled) {
    std::fprintf(stderr, "obs: --race-out requires --race-detect on\n");
    std::exit(2);
  }
  if (race_cfg_.enabled) {
    race_det_ = std::make_unique<obs::RaceDetector>(race_cfg_);
    std::printf("# race detection: %s\n", race_cfg_.to_string().c_str());
  }
  if (trace_wanted()) {
    // Open the file up front: batches are appended as the log's buffer
    // fills, so a run of any length streams instead of dropping.
    stream_out_ = std::make_unique<std::ofstream>(trace_path_);
    if (!*stream_out_) {
      std::fprintf(stderr, "obs: cannot open --trace-out %s\n", trace_path_.c_str());
      std::exit(2);
    }
    stream_writer_ = std::make_unique<obs::PerfettoStreamWriter>(*stream_out_);
    trace_ = std::make_unique<cluster::TraceLog>();
    trace_->set_sink([this](const std::vector<cluster::TraceEvent>& batch) {
      stream_writer_->consume(batch);
    });
  }
}

void ObsRecorder::apply_fault(cluster::ClusterParams& params) const {
  if (fault_wanted()) params.fault = fault_;
}

void ObsRecorder::attach(hyperion::VmConfig& cfg) {
  // The fault profile is part of the experiment, not of the observation: it
  // must land in the ClusterParams even when no trace/metrics were requested.
  apply_fault(cfg.cluster);
  // The race detector attaches regardless of trace/metrics: --race-detect
  // with only --race-out is a valid way to run the zero-race oracle.
  if (race_det_ != nullptr) cfg.race = race_det_.get();
  if (!active()) return;
  if (trace_ != nullptr) {
    trace_->flush_sink();  // the streamed export covers every attached run
    cfg.trace = trace_.get();
  }
  cfg.heat = &heat_;      // re-initialized by the VM constructor
  cfg.phases = &phases_;  // likewise
}

void ObsRecorder::capture(obs::MetricsPoint mp) {
  if (race_det_ != nullptr) {
    // Per-run tallies (the VM constructor reset the detector at attach);
    // counters land in the metrics JSON, rows in the --race-out report.
    mp.stats.add(Counter::kRacesDetected, race_det_->races());
    mp.stats.add(Counter::kRaceAccessesChecked, race_det_->accesses_checked());
    mp.stats.add(Counter::kRaceBenignSuppressed, race_det_->benign_suppressed());
    mp.stats.add(Counter::kRaceClockMsgs, race_det_->clock_msgs());
    mp.stats.add(Counter::kRaceClockBytes, race_det_->clock_bytes());
    races_total_ += race_det_->races();
    if (!race_path_.empty()) {
      race_report_ << "== run: " << (mp.label.empty() ? mp.cluster : mp.label);
      if (!mp.protocol.empty()) race_report_ << " " << mp.protocol;
      if (mp.nodes >= 0) race_report_ << " nodes=" << mp.nodes;
      race_report_ << " ==\n";
      race_det_->write_report(race_report_);
      race_report_ << "\n";
    }
  }
  if (!active()) return;
  if (heat_.initialized()) obs::fill_heat(mp, heat_, kHeatTopN);
  if (phases_.initialized()) obs::fill_phases(mp, phases_);
  if (trace_ != nullptr) {
    mp.has_trace = true;
    mp.trace_events = trace_->events().size() + stream_writer_->events_written();
    mp.trace_dropped = trace_->dropped();
    for (int k = 0; k < cluster::kTraceKindCount; ++k) {
      const auto kind = static_cast<cluster::TraceKind>(k);
      if (trace_->dropped(kind) != 0) {
        mp.trace_dropped_by_kind[cluster::trace_kind_name(kind)] = trace_->dropped(kind);
      }
    }
  }
  points_.push_back(std::move(mp));
}

void ObsRecorder::capture_run(const std::string& label, const apps::RunResult& result,
                              const std::string& protocol, int nodes) {
  if (!active() && race_det_ == nullptr) return;
  obs::MetricsPoint mp;
  mp.label = label;
  mp.protocol = protocol;
  mp.nodes = nodes;
  mp.elapsed = result.elapsed;
  mp.value = result.value;
  mp.has_value = true;
  mp.stats = result.stats;
  capture(std::move(mp));
}

void ObsRecorder::capture_run_windowed(const std::string& label,
                                       const apps::RunResult& result,
                                       const std::string& protocol, int nodes,
                                       Time window_start, Time window_end,
                                       std::uint64_t excluded_ops) {
  if (!active() && race_det_ == nullptr) return;
  obs::MetricsPoint mp;
  mp.label = label;
  mp.protocol = protocol;
  mp.nodes = nodes;
  mp.elapsed = result.elapsed;
  mp.value = result.value;
  mp.has_value = true;
  mp.stats = result.stats;
  mp.has_window = true;
  mp.window_start = window_start;
  mp.window_end = window_end;
  mp.window_excluded_ops = excluded_ops;
  capture(std::move(mp));
}

void ObsRecorder::finish() {
  if (finished_) return;
  finished_ = true;
  if (metrics_wanted()) {
    std::ofstream out(metrics_path_);
    if (!out) {
      std::fprintf(stderr, "obs: cannot open --metrics-out %s\n", metrics_path_.c_str());
    } else {
      obs::write_metrics_json(out, tool_, points_);
      std::printf("metrics written: %s (%zu points)\n", metrics_path_.c_str(), points_.size());
    }
  }
  if (trace_wanted()) {
    trace_->flush_sink();
    stream_writer_->finish(*trace_);
    stream_out_->flush();
    std::printf("trace streamed: %s (%llu events, %llu dropped)\n", trace_path_.c_str(),
                static_cast<unsigned long long>(stream_writer_->events_written()),
                static_cast<unsigned long long>(trace_->dropped()));
  }
  if (!race_path_.empty()) {
    std::ofstream out(race_path_);
    if (!out) {
      std::fprintf(stderr, "obs: cannot open --race-out %s\n", race_path_.c_str());
    } else {
      out << race_report_.str();
      std::printf("race report written: %s (%llu races)\n", race_path_.c_str(),
                  static_cast<unsigned long long>(races_total_));
    }
  }
}

void add_sweep_flags(Cli& cli) {
  cli.flag_bool("myri", true, "sweep the 200 MHz/Myrinet-BIP cluster (1-12 nodes)")
      .flag_bool("sci", true, "sweep the 450 MHz/SCI-SISCI cluster (1-6 nodes)")
      .flag_int("max-nodes", 0, "cap the node counts (0 = paper sweep)")
      .flag_bool("quick", false, "coarse sweep (nodes 1,4,12 / 1,3,6) for smoke runs")
      .flag_string("plot-dir", "", "write gnuplot <id>.dat/<id>.gp into this directory");
}

bool matches_reference(double value, double reference) {
  const double denom = std::abs(reference) > 1.0 ? std::abs(reference) : 1.0;
  return std::abs(value - reference) / denom <= 1e-7;
}

SweepOptions sweep_from_cli(const Cli& cli) {
  SweepOptions opts;
  opts.run_myri = cli.get_bool("myri");
  opts.run_sci = cli.get_bool("sci");
  if (cli.get_bool("quick")) {
    opts.myri_nodes = {1, 4, 12};
    opts.sci_nodes = {1, 3, 6};
  }
  opts.plot_dir = cli.get_string("plot-dir");
  const auto cap = cli.get_int("max-nodes");
  if (cap > 0) {
    auto trim = [cap](std::vector<int>& v) {
      std::vector<int> out;
      for (int n : v) {
        if (n <= cap) out.push_back(n);
      }
      v = std::move(out);
    };
    trim(opts.myri_nodes);
    trim(opts.sci_nodes);
  }
  return opts;
}

namespace {

const std::vector<std::string> kCounterColumns = {
    "inline_checks", "page_faults",    "mprotect_calls", "page_fetches",
    "updates_sent",  "invalidations",  "monitor_enters", "messages",
    "message_bytes", "write_log_entries", "diff_words",
};

}  // namespace

std::vector<SweepPoint> run_figure(const FigureSpec& spec, const SweepOptions& opts,
                                   ObsRecorder* obs) {
  std::printf("# %s — %s\n", spec.id.c_str(), spec.title.c_str());
  std::printf("# workload: %s\n", spec.workload.c_str());
  std::printf("# (reproduction of Antoniu & Hatcher, IPDPS'01 JavaPDC; virtual-time simulation)\n\n");

  std::vector<SweepPoint> points;
  auto sweep_cluster = [&](const std::string& cluster, const std::vector<int>& node_counts) {
    for (int nodes : node_counts) {
      for (auto kind : {dsm::ProtocolKind::kJavaIc, dsm::ProtocolKind::kJavaPf,
                        dsm::ProtocolKind::kHybrid}) {
        SweepPoint pt;
        pt.cluster = cluster;
        pt.protocol = dsm::protocol_name(kind);
        pt.nodes = nodes;
        apps::VmConfig cfg = apps::make_config(cluster, kind, nodes, spec.region_bytes);
        if (obs != nullptr) obs->attach(cfg);
        pt.result = spec.run(cfg);
        if (obs != nullptr) {
          obs::MetricsPoint mp;
          mp.cluster = pt.cluster;
          mp.protocol = pt.protocol;
          mp.nodes = pt.nodes;
          mp.elapsed = pt.result.elapsed;
          mp.value = pt.result.value;
          mp.has_value = true;
          mp.stats = pt.result.stats;
          obs->capture(std::move(mp));
        }
        points.push_back(std::move(pt));
      }
    }
  };
  if (opts.run_myri) sweep_cluster("myri200", opts.myri_nodes);
  if (opts.run_sci) sweep_cluster("sci450", opts.sci_nodes);

  // --- CSV block ------------------------------------------------------------
  {
    std::vector<std::string> header = {"figure", "cluster", "protocol", "nodes", "seconds",
                                       "value"};
    header.insert(header.end(), kCounterColumns.begin(), kCounterColumns.end());
    Table csv(header);
    for (const auto& pt : points) {
      std::vector<std::string> row = {spec.id,
                                      pt.cluster,
                                      pt.protocol,
                                      fmt_u64(static_cast<std::uint64_t>(pt.nodes)),
                                      fmt_double(to_seconds(pt.result.elapsed), 6),
                                      fmt_double(pt.result.value, 6)};
      const auto counters = pt.result.stats.nonzero();
      for (const auto& name : kCounterColumns) {
        auto it = counters.find(name);
        row.push_back(fmt_u64(it == counters.end() ? 0 : it->second));
      }
      csv.add_row(std::move(row));
    }
    csv.write_csv(std::cout);
    std::printf("\n");
  }

  // --- paper-style series + improvement summary ------------------------------
  for (const std::string& cluster : {std::string("myri200"), std::string("sci450")}) {
    std::map<int, std::map<std::string, double>> by_nodes;
    for (const auto& pt : points) {
      if (pt.cluster == cluster) {
        by_nodes[pt.nodes][pt.protocol] = to_seconds(pt.result.elapsed);
      }
    }
    if (by_nodes.empty()) continue;

    std::printf("%s (%s):\n", cluster.c_str(),
                cluster == "myri200" ? "200 MHz Pentium Pro, Myrinet/BIP"
                                     : "450 MHz Pentium II, SCI/SISCI");
    Table table({"nodes", "java_ic (s)", "java_pf (s)", "hybrid (s)", "pf improvement",
                 "hybrid vs best"});
    double improvement_sum = 0;
    int improvement_count = 0;
    for (const auto& [nodes, series] : by_nodes) {
      const double ic = series.at("java_ic");
      const double pf = series.at("java_pf");
      const double improvement = ic > 0 ? 1.0 - pf / ic : 0.0;
      improvement_sum += improvement;
      ++improvement_count;
      const auto hy_it = series.find("hybrid");
      std::string hy_col = "-";
      std::string hy_gain = "-";
      if (hy_it != series.end()) {
        const double best = ic < pf ? ic : pf;
        hy_col = fmt_double(hy_it->second, 3);
        hy_gain = fmt_percent(best > 0 ? 1.0 - hy_it->second / best : 0.0);
      }
      table.add_row({fmt_u64(static_cast<std::uint64_t>(nodes)), fmt_double(ic, 3),
                     fmt_double(pf, 3), std::move(hy_col), fmt_percent(improvement),
                     std::move(hy_gain)});
    }
    table.write_pretty(std::cout);
    std::printf("average java_pf improvement on %s: %s\n\n", cluster.c_str(),
                fmt_percent(improvement_sum / improvement_count).c_str());
  }

  // --- optional gnuplot emission --------------------------------------------
  if (!opts.plot_dir.empty()) {
    const std::string dat_path = opts.plot_dir + "/" + spec.id + ".dat";
    const std::string gp_path = opts.plot_dir + "/" + spec.id + ".gp";
    std::ofstream dat(dat_path);
    dat << "# " << spec.id << " — " << spec.title << "\n";
    dat << "# cluster protocol nodes seconds\n";
    for (const auto& pt : points) {
      dat << pt.cluster << " " << pt.protocol << " " << pt.nodes << " "
          << fmt_double(to_seconds(pt.result.elapsed), 6) << "\n";
    }
    std::ofstream gp(gp_path);
    gp << "# gnuplot script replicating the paper's figure axes\n"
       << "set title '" << spec.title << "'\n"
       << "set xlabel 'Number of nodes'\nset ylabel 'Execution time'\n"
       << "set key top right\nset grid\n"
       << "plot \\\n";
    const char* styles[6] = {"lc 1 pt 5", "lc 1 pt 4", "lc 1 pt 3",
                             "lc 2 pt 7", "lc 2 pt 6", "lc 2 pt 2"};
    int i = 0;
    for (const char* cl : {"myri200", "sci450"}) {
      for (const char* proto : {"java_ic", "java_pf", "hybrid"}) {
        gp << "  '" << spec.id << ".dat' using 3:(strcol(1) eq '" << cl
           << "' && strcol(2) eq '" << proto << "' ? $4 : 1/0) with linespoints "
           << styles[i] << " title '" << cl << ", " << proto << "'"
           << (i == 5 ? "\n" : ", \\\n");
        ++i;
      }
    }
    std::printf("gnuplot artifacts written: %s, %s\n", dat_path.c_str(), gp_path.c_str());
  }

  if (obs != nullptr) obs->finish();
  return points;
}

}  // namespace hyp::bench
