// Shared harness for the figure-reproducing benchmarks (Figures 1-5).
//
// Each figure binary binds one application and its problem parameters, then
// calls run_figure(): a sweep over both clusters (200 MHz/Myrinet with 1-12
// nodes, 450 MHz/SCI with 1-6 — the paper's x-axes) and both protocols.
// Output: a CSV block (one row per point, with event counters) followed by a
// per-cluster table mirroring the paper's series and the java_pf improvement
// summary quoted in §4.3.
#pragma once

#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app_common.hpp"
#include "cluster/params.hpp"
#include "cluster/trace.hpp"
#include "common/cli.hpp"
#include "obs/heat.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/phase.hpp"
#include "obs/race.hpp"

namespace hyp::bench {

struct SweepPoint {
  std::string cluster;
  std::string protocol;
  int nodes = 0;
  apps::RunResult result;
};

struct FigureSpec {
  std::string id;          // e.g. "fig5"
  std::string title;       // e.g. "ASP: java_pf vs. java_ic"
  std::string workload;    // human-readable problem description
  // Runs the application at one experiment point.
  std::function<apps::RunResult(const apps::VmConfig&)> run;
  std::size_t region_bytes = std::size_t{256} << 20;
};

struct SweepOptions {
  std::vector<int> myri_nodes = {1, 2, 4, 6, 8, 10, 12};
  std::vector<int> sci_nodes = {1, 2, 3, 4, 5, 6};
  bool run_myri = true;
  bool run_sci = true;
  // When non-empty, a gnuplot data file (<id>.dat) and script (<id>.gp)
  // replicating the paper figure's axes are written into this directory.
  std::string plot_dir;
};

// Registers the sweep-control flags shared by all figure binaries.
void add_sweep_flags(Cli& cli);
SweepOptions sweep_from_cli(const Cli& cli);

// True when a parallel run's answer matches its serial reference.
// Per-thread partial checksums merge through a monitor, so the fp addition
// order varies with the partition; the relative tolerance (1e-7) absorbs
// merge-order noise while still failing loudly on any genuinely wrong
// answer.
bool matches_reference(double value, double reference);

// Uniform observability wiring for the bench binaries:
//
//   --trace-out FILE    Perfetto/Chrome trace_events JSON of every attached
//                       run (openable in ui.perfetto.dev), streamed through
//                       the log's double-buffered sink, so nothing is ever
//                       dropped;
//   --metrics-out FILE  hyp-metrics-v1 JSON: one point per run with every
//                       nonzero counter, the log2 latency/size histograms,
//                       the hottest pages and the per-node phase split.
//   --fault-profile S   deterministic network fault injection for every run
//                       (docs/FAULTS.md grammar, e.g.
//                       "drop2%,dup1%,reorder5us,seed=7"; default off).
//   --race-detect S     vector-clock data-race detection (docs/RACES.md);
//                       grammar on|off[,racegran=field|page], default off.
//   --race-out FILE     write the human-readable race report (one section
//                       per attached run) to FILE; requires --race-detect on.
//
// run_figure() drives attach/capture/finish automatically when given a
// recorder; binaries that build VmConfigs by hand (ablation_*, ext_*) call
// attach() before each run and capture_run() after, then finish() once.
// All attachments observe without perturbing: a run's virtual time is
// bit-identical with or without them (tests/determinism_golden_test.cpp).
class ObsRecorder {
 public:
  // Registers --trace-out / --metrics-out / --fault-profile / --race-detect /
  // --race-out.
  static void add_flags(Cli& cli);

  // Reads the flags; `tool` names the producing binary in the metrics JSON.
  void configure(const Cli& cli, std::string tool);

  bool trace_wanted() const { return !trace_path_.empty(); }
  bool metrics_wanted() const { return !metrics_path_.empty(); }
  bool active() const { return trace_wanted() || metrics_wanted(); }

  // True when --race-detect on was given; the detector is then attached to
  // every run (and its tallies injected into the metrics counters).
  bool race_wanted() const { return race_cfg_.enabled; }
  obs::RaceDetector* race() { return race_det_.get(); }

  // True when --fault-profile was given (and is not "off").
  bool fault_wanted() const { return fault_.any(); }
  const cluster::FaultProfile& fault() const { return fault_; }
  // Merges the configured fault profile into `params` (no-op when the flag
  // was absent). attach() does this for VmConfig-driven runs; harnesses that
  // construct a Cluster by hand call this on their ClusterParams first.
  void apply_fault(cluster::ClusterParams& params) const;

  // Wires the trace/heat/phase attachments into `cfg` (the trace is cleared,
  // heat/phases are re-initialized by the VM constructor), so the next VM
  // built from `cfg` is observed. No-op when inactive.
  void attach(hyperion::VmConfig& cfg);

  // Records one finished experiment point. The caller fills identity and
  // result fields; the heat / phase / trace sections are appended from the
  // current attachments. No-op when inactive.
  void capture(obs::MetricsPoint mp);

  // One-line capture for hand-rolled sweeps: label + RunResult (+ optional
  // protocol/nodes identity).
  void capture_run(const std::string& label, const apps::RunResult& result,
                   const std::string& protocol = "", int nodes = -1);

  // capture_run plus the measurement window the point was measured under
  // (warmup/cooldown trimmed, docs/SERVING.md), serialized as the optional
  // "window" object in hyp-metrics-v1. Plain capture_run points carry none —
  // the window annotation is strictly opt-in.
  void capture_run_windowed(const std::string& label,
                            const apps::RunResult& result,
                            const std::string& protocol, int nodes,
                            Time window_start, Time window_end,
                            std::uint64_t excluded_ops);

  // Writes the requested files (and prints their paths). run_figure() calls
  // this; hand-rolled sweeps call it once after the last capture.
  void finish();

 private:
  std::string tool_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string race_path_;
  cluster::FaultProfile fault_;  // default: off
  obs::RaceConfig race_cfg_;     // default: off
  std::unique_ptr<cluster::TraceLog> trace_;
  // Streaming export: the file is open for the whole sweep and batches are
  // appended as the log's spare buffer fills.
  std::unique_ptr<std::ofstream> stream_out_;
  std::unique_ptr<obs::PerfettoStreamWriter> stream_writer_;
  obs::PageHeatTable heat_;
  obs::PhaseAccounting phases_;
  std::unique_ptr<obs::RaceDetector> race_det_;
  // The --race-out report: one section per captured run (the detector is
  // reset by each VM construction, so tallies are per-run).
  std::ostringstream race_report_;
  std::uint64_t races_total_ = 0;
  std::vector<obs::MetricsPoint> points_;
  bool finished_ = false;
};

// Executes the sweep and prints CSV + tables + improvement summary.
// Returns all measured points (for binaries that post-process). When `obs`
// is non-null, every point is run with the recorder attached and captured,
// and obs->finish() is called before returning.
std::vector<SweepPoint> run_figure(const FigureSpec& spec, const SweepOptions& opts,
                                   ObsRecorder* obs = nullptr);

}  // namespace hyp::bench
