// Run-metrics JSON export: counters + histograms + page heat + phases.
//
// One `--metrics-out FILE` per bench binary (bench/fig_common wires the
// flag) produces a machine-readable record of every experiment point:
//
//   {"schema":"hyp-metrics-v1","tool":"fig2","points":[ {...}, ... ]}
//
// Each point carries the identifying labels (cluster/protocol/nodes or a
// free-form label for the ablation tools), the elapsed virtual time and
// result value, every nonzero Stats counter, the log2 histograms (nonzero
// buckets as [lower, upper) ranges), the hottest pages, the per-node phase
// split, and — when a trace was attached — the trace drop accounting, so a
// truncated trace can never silently masquerade as a complete one.
//
// All numeric output is integer or fixed-precision, making files diffable
// across runs of a deterministic simulation.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "obs/heat.hpp"
#include "obs/phase.hpp"

namespace hyp::obs {

struct MetricsPoint {
  // Identity (empty/-1 fields are omitted from the JSON).
  std::string cluster;
  std::string protocol;
  int nodes = -1;
  std::string label;  // free-form (ablation axis value, workload name, ...)

  // Results.
  Time elapsed = 0;
  double value = 0;
  bool has_value = false;
  Stats stats;

  // Optional sections.
  bool has_heat = false;
  std::size_t heat_page_bytes = 0;
  std::vector<PageHeatTable::Row> heat_top;

  bool has_phases = false;
  int phase_nodes = 0;
  std::vector<std::uint64_t> phases;  // [node * kPhaseCount + phase]

  bool has_trace = false;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::map<std::string, std::uint64_t> trace_dropped_by_kind;

  // Measurement window (open-loop benches, docs/SERVING.md): the span of
  // virtual time whose ops were *included* in the latency histograms, after
  // warmup/cooldown exclusion, plus how many ops fell outside it. Off by
  // default — batch figures never set it, so their JSON is byte-unchanged.
  bool has_window = false;
  Time window_start = 0;
  Time window_end = 0;
  std::uint64_t window_excluded_ops = 0;

  // Host-side measurements (bench/sweep_scale): wall clock, engine event
  // throughput, the process peak RSS after the point ran and its minor page
  // faults. ru_maxrss is a process-lifetime high-water mark, so a sweep that
  // wants per-point meaning must run its points in ascending cost order.
  bool has_host = false;
  double host_wall_s = 0;
  std::uint64_t host_events = 0;
  std::uint64_t host_events_per_sec = 0;
  std::uint64_t host_peak_rss_kb = 0;
  std::uint64_t host_minor_faults = 0;
};

// Snapshot helpers for the optional sections.
void fill_heat(MetricsPoint& mp, const PageHeatTable& heat, std::size_t top_n);
void fill_phases(MetricsPoint& mp, const PhaseAccounting& phases);

void write_metrics_json(std::ostream& os, const std::string& tool,
                        const std::vector<MetricsPoint>& points);

}  // namespace hyp::obs
