#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdio>

namespace hyp::obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fixed6(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

void write_histogram(std::ostream& os, const Log2Histogram& h) {
  os << "{\"count\":" << h.count() << ",\"sum\":" << h.sum();
  if (!h.empty()) os << ",\"min\":" << h.min() << ",\"max\":" << h.max();
  os << ",\"buckets\":[";
  bool first = true;
  for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    if (!first) os << ',';
    first = false;
    // Inclusive bounds ("le", not "lt"): bucket 64's top bound is UINT64_MAX
    // and values equal to it land *in* the bucket (histogram.hpp).
    os << "{\"ge\":" << Log2Histogram::bucket_lower(i)
       << ",\"le\":" << Log2Histogram::bucket_upper(i) << ",\"count\":" << h.bucket(i) << '}';
  }
  os << "]}";
}

void write_point(std::ostream& os, const MetricsPoint& mp) {
  os << "    {";
  bool first = true;
  auto field = [&](const std::string& body) {
    os << (first ? "" : ",") << "\n      " << body;
    first = false;
  };

  if (!mp.cluster.empty()) field("\"cluster\":\"" + json_escape(mp.cluster) + '"');
  if (!mp.protocol.empty()) field("\"protocol\":\"" + json_escape(mp.protocol) + '"');
  if (mp.nodes >= 0) field("\"nodes\":" + std::to_string(mp.nodes));
  if (!mp.label.empty()) field("\"label\":\"" + json_escape(mp.label) + '"');
  field("\"elapsed_ps\":" + std::to_string(mp.elapsed));
  field("\"seconds\":" + fixed6(to_seconds(mp.elapsed)));
  if (mp.has_value) field("\"value\":" + fixed6(mp.value));

  // Counters (nonzero only, sorted by name — Stats::nonzero is a std::map).
  {
    std::string body = "\"counters\":{";
    bool f2 = true;
    for (const auto& [name, v] : mp.stats.nonzero()) {
      if (!f2) body += ',';
      f2 = false;
      body += '"' + json_escape(name) + "\":" + std::to_string(v);
    }
    body += '}';
    field(body);
  }

  // Histograms (only ones with samples).
  {
    bool any = false;
    for (int i = 0; i < static_cast<int>(Hist::kCount_); ++i) {
      if (!mp.stats.hist(static_cast<Hist>(i)).empty()) any = true;
    }
    if (any) {
      os << (first ? "" : ",") << "\n      \"histograms\":{";
      first = false;
      bool f2 = true;
      for (int i = 0; i < static_cast<int>(Hist::kCount_); ++i) {
        const auto h = static_cast<Hist>(i);
        if (mp.stats.hist(h).empty()) continue;
        if (!f2) os << ',';
        f2 = false;
        os << "\n        \"" << hist_name(h) << "\":";
        write_histogram(os, mp.stats.hist(h));
      }
      os << "\n      }";
    }
  }

  if (mp.has_heat) {
    os << (first ? "" : ",") << "\n      \"page_heat\":{\"page_bytes\":" << mp.heat_page_bytes
       << ",\"top\":[";
    first = false;
    bool f2 = true;
    for (const auto& r : mp.heat_top) {
      if (!f2) os << ',';
      f2 = false;
      os << "\n        {\"page\":" << r.page << ",\"fetches\":" << r.fetches
         << ",\"faults\":" << r.faults << ",\"update_bytes\":" << r.update_bytes << '}';
    }
    os << "\n      ]}";
  }

  if (mp.has_phases) {
    os << (first ? "" : ",") << "\n      \"phases_ps\":{\"per_node\":[";
    first = false;
    for (int n = 0; n < mp.phase_nodes; ++n) {
      if (n != 0) os << ',';
      os << "\n        {\"node\":" << n;
      for (int p = 0; p < kPhaseCount; ++p) {
        os << ",\"" << phase_name(static_cast<Phase>(p))
           << "\":" << mp.phases[static_cast<std::size_t>(n) * kPhaseCount + p];
      }
      os << '}';
    }
    os << "\n      ]}";
  }

  if (mp.has_host) {
    char wall[48];
    std::snprintf(wall, sizeof(wall), "%.3f", mp.host_wall_s);
    field("\"host\":{\"wall_s\":" + std::string(wall) +
          ",\"events\":" + std::to_string(mp.host_events) +
          ",\"events_per_sec\":" + std::to_string(mp.host_events_per_sec) +
          ",\"peak_rss_kb\":" + std::to_string(mp.host_peak_rss_kb) +
          ",\"minor_faults\":" + std::to_string(mp.host_minor_faults) + '}');
  }

  if (mp.has_window) {
    field("\"window\":{\"start_ps\":" + std::to_string(mp.window_start) +
          ",\"end_ps\":" + std::to_string(mp.window_end) +
          ",\"excluded_ops\":" + std::to_string(mp.window_excluded_ops) + '}');
  }

  if (mp.has_trace) {
    std::string body = "\"trace\":{\"events\":" + std::to_string(mp.trace_events) +
                       ",\"dropped\":" + std::to_string(mp.trace_dropped);
    if (!mp.trace_dropped_by_kind.empty()) {
      body += ",\"dropped_by_kind\":{";
      bool f2 = true;
      for (const auto& [name, v] : mp.trace_dropped_by_kind) {
        if (!f2) body += ',';
        f2 = false;
        body += '"' + json_escape(name) + "\":" + std::to_string(v);
      }
      body += '}';
    }
    body += '}';
    field(body);
  }

  os << "\n    }";
}

}  // namespace

void fill_heat(MetricsPoint& mp, const PageHeatTable& heat, std::size_t top_n) {
  mp.has_heat = true;
  mp.heat_page_bytes = heat.page_bytes();
  mp.heat_top = heat.top(top_n);
}

void fill_phases(MetricsPoint& mp, const PhaseAccounting& phases) {
  mp.has_phases = true;
  mp.phase_nodes = phases.nodes();
  mp.phases.assign(static_cast<std::size_t>(phases.nodes()) * kPhaseCount, 0);
  for (int n = 0; n < phases.nodes(); ++n) {
    for (int p = 0; p < kPhaseCount; ++p) {
      mp.phases[static_cast<std::size_t>(n) * kPhaseCount + p] =
          phases.get(n, static_cast<Phase>(p));
    }
  }
}

void write_metrics_json(std::ostream& os, const std::string& tool,
                        const std::vector<MetricsPoint>& points) {
  os << "{\n  \"schema\":\"hyp-metrics-v1\",\n  \"tool\":\"" << json_escape(tool)
     << "\",\n  \"points\":[\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    write_point(os, points[i]);
    os << (i + 1 < points.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

}  // namespace hyp::obs
