// hyp_benchmark: the repository's benchmark program (benchmark/README.md).
//
// Runs one workload: every point (program x protocol) once per repetition,
// protocols in an order that rotates per repetition, until --seconds of host
// time are spent (and at least --reps repetitions ran). Every answer is
// checked against its serial reference; a wrong answer is counted, never
// fatal. A point's checks are counted once, from its first run, so
// "attempted" and "failed" depend on the workload and seed only, not on how
// many repetitions fit the budget. Keys whose acked writes the store lost
// count as failed checks but leave "correct" true; any other failed check
// makes it false. Host time is what the simulator takes; virtual time is what
// the simulated cluster would take, and every metric's unit names its clock.
//
// --trace 0 reports the end-to-end metrics. --trace 1 spends half the budget
// on untraced repetitions and then runs one traced repetition (phase
// accounting and page heat attached, spans recorded), the layer
// microbenches, and the workload's one-shot extras, and reports the
// per-layer metrics. Either way the last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "micro.hpp"
#include "obs/heat.hpp"
#include "obs/phase.hpp"
#include "workloads.hpp"

namespace hyp::benchmark {

namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- statistics ---------------------------------------------------------------

struct Summary {
  double min = 0, q1 = 0, median = 0, q3 = 0;
};

// Quartiles by linear interpolation between order statistics.
Summary summarize(std::vector<double> v) {
  Summary s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  s.min = v.front();
  s.q1 = at(0.25);
  s.median = at(0.5);
  s.q3 = at(0.75);
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB on Linux
}

// --- virt_digest: FNV-1a over every simulated output ---------------------------

class Fnv {
 public:
  template <typename T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) h_ = (h_ ^ c) * 0x100000001b3ULL;
  }
  void add(const std::string& s) {
    for (char c : s) add(c);
    add('\0');
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t point_digest(const Outcome& o) {
  Fnv f;
  const apps::RunResult& r = o.run;
  f.add(r.elapsed);
  f.add(r.value);
  f.add(r.events_processed);
  f.add(r.context_switches);
  for (const auto& [name, value] : r.stats.nonzero()) {
    f.add(name);
    f.add(value);
  }
  for (int h = 0; h < static_cast<int>(Hist::kCount_); ++h) {
    const Log2Histogram& hist = r.stats.hist(static_cast<Hist>(h));
    f.add(hist.count());
    f.add(hist.sum());
    f.add(hist.min());
    f.add(hist.max());
    for (int b = 0; b < Log2Histogram::kBuckets; ++b) f.add(hist.bucket(b));
  }
  if (o.serve) {
    f.add(o.serve->checksum);
    f.add(o.serve->lost_keys);
    f.add(o.serve->p50_us);
    f.add(o.serve->p99_us);
    f.add(o.serve->p999_us);
    f.add(o.serve->max_us);
  }
  return f.value();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// --- spans (Chrome trace format) ------------------------------------------------

class Tracer {
 public:
  int new_id() { return ++last_id_; }
  void span(const std::string& name, const char* cat, Clock::time_point a, Clock::time_point b,
            int id = 0) {
    spans_.push_back({name, cat, micros(a), micros(b) - micros(a), id});
  }
  // Writes {"traceEvents": [...]} loadable by chrome://tracing and Perfetto.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[128];
      std::snprintf(buf, sizeof(buf), "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                    s.ts, s.dur);
      out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
          << "\"," << buf << ",\"args\":{\"id\":" << s.id << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    const char* cat;
    double ts, dur;
    int id;
  };
  double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int last_id_ = 0;
};

// --- the measured repetitions -------------------------------------------------

struct Measured {
  std::vector<std::optional<Outcome>> outcomes;  // first run of each point
  std::vector<std::uint64_t> digests;            // per point
  std::vector<bool> diverged;                    // per point: a run did not reproduce
  // Host seconds per point and repetition: running the point, and
  // constructing its VM.
  std::vector<std::vector<double>> run_s, setup_s;
  std::vector<double> gen_s;  // serve stream generation, per repetition
  std::vector<std::array<double, kProtocolCount>> rep_s;  // per rep, per protocol
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t lost = 0;  // the failed checks that are lost acked writes

  void count(const Outcome& o) {
    attempted += o.checks;
    failed += o.failed;
    lost += o.lost;
  }
  // The run is correct when every failed check is a key the store lost: a
  // wrong batch answer, a repetition that does not reproduce the first, or
  // a digest mismatch makes the measurement itself wrong.
  bool correct() const {
    return failed == lost && std::find(diverged.begin(), diverged.end(), true) == diverged.end();
  }
};

// Counts the checks of point `i`'s first run. A later run only has to
// reproduce it: one whose simulated outputs differ is not deterministic, and
// every check of the point fails.
void settle(Measured& m, const Workload& w, std::size_t i, Outcome&& o) {
  const std::uint64_t d = point_digest(o);
  if (!m.outcomes[i]) {
    m.digests[i] = d;
    m.count(o);
    m.outcomes[i] = std::move(o);
    return;
  }
  if (d != m.digests[i] && !m.diverged[i]) {
    std::fprintf(stderr, "hyp_benchmark: %s/%s: simulated outputs differ between runs\n",
                 w.points[i].app.c_str(), dsm::protocol_name(w.points[i].protocol));
    m.diverged[i] = true;
    m.failed += m.outcomes[i]->checks - m.outcomes[i]->failed;
  }
}

void run_rep(const Workload& w, int rep, Measured& m) {
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const auto t0 = Clock::now();
    { hyperion::HyperionVM vm(w.points[i].cfg); }
    m.setup_s[i].push_back(seconds_between(t0, Clock::now()));
  }
  if (w.serve) {
    const auto t0 = Clock::now();
    generate_streams(*w.serve);
    m.gen_s.push_back(seconds_between(t0, Clock::now()));
  }
  std::array<double, kProtocolCount> host{};
  for (int k = 0; k < kProtocolCount; ++k) {
    const int pi = (k + rep) % kProtocolCount;  // rotate the protocol order
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const Point& p = w.points[i];
      if (protocol_index(p.protocol) != pi) continue;
      const auto t0 = Clock::now();
      Outcome o = p.run(p.cfg);
      const double dt = seconds_between(t0, Clock::now());
      host[static_cast<std::size_t>(pi)] += dt;
      m.run_s[i].push_back(dt);
      p.check(o);
      settle(m, w, i, std::move(o));
    }
  }
  m.rep_s.push_back(host);
}

// Host seconds of the points selected by `pick`, each at its fastest
// repetition. The simulated work is identical in every repetition, so host
// noise only ever adds time; per-point minima discard it point by point.
template <typename Pick>
double quiet_s(const Workload& w, const Measured& m, Pick pick) {
  double s = 0;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    if (pick(w.points[i])) s += summarize(m.run_s[i]).min;
  }
  return s;
}

double quiet_total_s(const Workload& w, const Measured& m) {
  return quiet_s(w, m, [](const Point&) { return true; });
}

// Set-up seconds: per point the median VM construction, plus the median
// stream generation.
double setup_median_s(const Measured& m) {
  double s = summarize(m.gen_s).median;
  for (const auto& v : m.setup_s) s += summarize(v).median;
  return s;
}

// --- the traced pass -----------------------------------------------------------

struct Traced {
  double host_total = 0;
  Time phase[obs::kPhaseCount] = {};
  std::uint64_t fetches = 0;
  std::uint64_t pages_fetched = 0;  // distinct pages with >= 1 fetch
  // The serve_read rate ladder per protocol, one result per rung.
  std::array<std::vector<serve::ServeResult>, kProtocolCount> ladder;
  double fault_free_host = 0;  // serve_write_ha cells without the fault profile
  std::vector<std::pair<std::string, double>> micro;
};

Traced traced_pass(const Workload& w, bool smoke, Measured& m, Tracer& tr) {
  Traced t;
  const auto begin = Clock::now();
  obs::PhaseAccounting phases;
  obs::PageHeatTable heat;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const Point& p = w.points[i];
    const int id = tr.new_id();
    const std::string label = p.app + "/" + dsm::protocol_name(p.protocol);
    const auto t0 = Clock::now();
    { hyperion::HyperionVM vm(p.cfg); }
    const auto t1 = Clock::now();
    apps::VmConfig cfg = p.cfg;
    cfg.phases = &phases;
    cfg.heat = &heat;
    Outcome o = p.run(cfg);
    const auto t2 = Clock::now();
    p.check(o);
    settle(m, w, i, std::move(o));
    const auto t3 = Clock::now();
    tr.span(label, "point", t0, t3, id);
    tr.span("setup", "setup", t0, t1, id);
    tr.span("run", "run", t1, t2, id);
    tr.span("verify", "verify", t2, t3, id);
    t.host_total += seconds_between(t1, t2);
    for (int ph = 0; ph < obs::kPhaseCount; ++ph) {
      t.phase[ph] += phases.total(static_cast<obs::Phase>(ph));
    }
    for (std::uint64_t pg = 0; pg < heat.total_pages(); ++pg) {
      const std::uint64_t f = heat.fetches(pg);
      t.fetches += f;
      t.pages_fetched += f != 0 ? 1 : 0;
    }
  }
  if (w.serve && !w.serve->ladder_rates.empty()) {
    // Virtual results are deterministic, so each rung runs once.
    for (int k = 0; k < kProtocolCount; ++k) {
      for (double rate : w.serve->ladder_rates) {
        apps::VmConfig cfg = w.serve->cfg;
        cfg.protocol = kProtocols[k];
        serve::ServeParams params = w.serve->params;
        params.rate_ops_per_s = rate;
        const auto t0 = Clock::now();
        Outcome o = run_serve_cell(cfg, params);
        tr.span("ladder/" + std::string(dsm::protocol_name(cfg.protocol)) + "/" +
                    std::to_string(static_cast<int>(rate)),
                "ladder", t0, Clock::now());
        m.count(o);
        t.ladder[static_cast<std::size_t>(k)].push_back(*o.serve);
      }
    }
  }
  if (w.serve && w.serve->cfg.cluster.fault.any()) {
    // The same cells without the fault profile, fastest of three like the
    // untraced per-point minima they are compared with.
    for (dsm::ProtocolKind kind : kProtocols) {
      apps::VmConfig cfg = w.serve->cfg;
      cfg.protocol = kind;
      cfg.cluster.fault = cluster::FaultProfile{};
      double best = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        Outcome o = run_serve_cell(cfg, w.serve->params);
        const auto t1 = Clock::now();
        tr.span("fault_free/" + std::string(dsm::protocol_name(kind)), "ha", t0, t1);
        best = std::min(best, seconds_between(t0, t1));
        if (rep == 0) m.count(o);
      }
      t.fault_free_host += best;
    }
  }
  t.micro = run_microbenches(w, smoke, [&tr](const std::string& name, Clock::time_point a,
                                              Clock::time_point b) {
    tr.span(name, "micro", a, b);
  });
  tr.span(w.name, "workload", begin, Clock::now());
  return t;
}

// --- metrics ---------------------------------------------------------------------

const char* const kAppNames[] = {"pi", "jacobi", "barnes", "tsp", "asp"};

double p_quantile_us(const Log2Histogram& h, double q) {
  return static_cast<double>(h.value_at_quantile(q)) / kMicrosecond;  // 0 when empty
}

std::vector<Metric> end_to_end(const Workload& w, const Measured& m) {
  std::vector<Metric> out;
  for (int k = 0; k < kProtocolCount; ++k) {
    out.push_back({std::string("host_s.") + dsm::protocol_name(kProtocols[k]),
                   quiet_s(w, m, [k](const Point& p) { return protocol_index(p.protocol) == k; }),
                   "s"});
  }
  out.push_back({"setup_s", setup_median_s(m), "s"});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  for (int k = 0; k < kProtocolCount; ++k) {
    double log_sum = 0;
    int n = 0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      if (protocol_index(w.points[i].protocol) != k) continue;
      log_sum += std::log(to_seconds(m.outcomes[i]->run.elapsed));
      ++n;
    }
    out.push_back({std::string("virt_s.") + dsm::protocol_name(kProtocols[k]),
                   n == 0 ? 0.0 : std::exp(log_sum / n), "virt_s"});
  }
  return out;
}

std::vector<Metric> per_layer(const Workload& w, const Measured& m, const Traced& t) {
  Stats total;
  std::uint64_t events = 0, switches = 0;
  for (const auto& o : m.outcomes) {
    total.merge(o->run.stats);
    events += o->run.events_processed;
    switches += o->run.context_switches;
  }
  const auto count = [&](Counter c) { return static_cast<double>(total.get(c)); };
  const auto named = [&](const char* n) { return static_cast<double>(total.get_named(n)); };
  const auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  std::map<std::string, double> micro(t.micro.begin(), t.micro.end());
  const double untraced = quiet_total_s(w, m);

  std::vector<Metric> out;
  const auto add = [&](std::string name, double value, const char* unit) {
    out.push_back({std::move(name), value, unit});
  };
  const auto add_micro = [&](const std::string& name) { add(name, micro.at(name), "ns"); };
  const auto protos = [](const std::string& stem, const auto& fn) {
    for (int k = 0; k < kProtocolCount; ++k) fn(stem + "." + dsm::protocol_name(kProtocols[k]), k);
  };

  // sim
  add("sim.events", static_cast<double>(events), "count");
  add("sim.context_switches", static_cast<double>(switches), "count");
  add("sim.host_ns_per_event", ratio(untraced * 1e9, static_cast<double>(events)), "ns");
  add_micro("sim.micro_ns_per_wakeup");
  add_micro("sim.micro_ns_per_post");
  add_micro("sim.micro_ns_per_wakeup_sharded");
  // cluster
  add("cluster.messages", count(Counter::kMessages), "count");
  add("cluster.message_bytes", count(Counter::kMessageBytes), "count");
  add_micro("cluster.micro_ns_per_call");
  add_micro("cluster.micro_ns_per_send_4k");
  add("cluster.retransmits", count(Counter::kRetransmits), "count");
  add("cluster.acks_sent", count(Counter::kAcksSent), "count");
  add("cluster.dup_suppressed", count(Counter::kDupSuppressed), "count");
  add("cluster.net_drops", count(Counter::kNetDrops), "count");
  add("cluster.retransmit_ratio",
      ratio(count(Counter::kRetransmits), count(Counter::kMessages)), "ratio");
  add_micro("cluster.micro_ns_per_call_lossy");
  // dsm
  add("dsm.inline_checks", count(Counter::kInlineChecks), "count");
  add("dsm.page_faults", count(Counter::kPageFaults), "count");
  add("dsm.mprotect_calls", count(Counter::kMprotectCalls), "count");
  protos("dsm.micro_ns_per_access", [&](const std::string& n, int) { add_micro(n); });
  add("dsm.page_fetches", count(Counter::kPageFetches), "count");
  add("dsm.page_fetch_bytes", count(Counter::kPageFetchBytes), "count");
  add("dsm.write_log_entries", count(Counter::kWriteLogEntries), "count");
  add("dsm.diff_words", count(Counter::kDiffWords), "count");
  add("dsm.updates_sent", count(Counter::kUpdatesSent), "count");
  add("dsm.update_bytes", count(Counter::kUpdateBytes), "count");
  add("dsm.invalidations", count(Counter::kInvalidations), "count");
  // Share of page fetches that brought back a page this run had fetched
  // before (the rest were first touches).
  add("dsm.refetch_ratio",
      ratio(static_cast<double>(t.fetches - t.pages_fetched), static_cast<double>(t.fetches)),
      "ratio");
  protos("dsm.micro_ns_per_fetch", [&](const std::string& n, int) { add_micro(n); });
  protos("dsm.micro_ns_per_flush_page", [&](const std::string& n, int) { add_micro(n); });
  add_micro("dsm.micro_ns_per_invalidate_page");
  add("dsm.fetch_p99_us", p_quantile_us(total.hist(Hist::kPageFetchLatency), 0.99), "virt_us");
  add("dsm.mode_switches", named("dsm_mode_switches"), "count");
  add("dsm.home_migrations", named("dsm_home_migrations"), "count");
  // hyperion
  add("hyperion.monitor_enters", count(Counter::kMonitorEnters), "count");
  add("hyperion.remote_thread_spawns", count(Counter::kRemoteThreadSpawns), "count");
  add_micro("hyperion.micro_ns_per_thread");
  add_micro("hyperion.micro_ns_per_monitor_pair.local");
  add_micro("hyperion.micro_ns_per_monitor_pair.remote");
  add("hyperion.monitor_wait_p99_us", p_quantile_us(total.hist(Hist::kMonitorAcquireWait), 0.99),
      "virt_us");
  // ha
  add("ha.heartbeats", count(Counter::kHaHeartbeats), "count");
  add("ha.promotions", count(Counter::kHaPromotions), "count");
  add("ha.reroutes", count(Counter::kHaReroutes), "count");
  add("ha.checkpoint_bytes", count(Counter::kHaCheckpointBytes), "count");
  add("ha.checkpoint_msgs", count(Counter::kHaCheckpointMsgs), "count");
  add("ha.fenced_rejects", count(Counter::kHaFencedRejects), "count");
  add("ha.migrations_reverted", named("dsm_migrations_reverted"), "count");
  // The longest any RPC waited on a failed home before its reroute: recovery
  // as the caller sees it (crash windows and partitions alike).
  add("ha.recovery_us", p_quantile_us(total.hist(Hist::kHaRerouteWait), 1.0), "virt_us");
  add("ha.host_overhead_frac",
      t.fault_free_host == 0 ? 0.0 : untraced / t.fault_free_host - 1.0, "fraction");
  // obs
  add("obs.phase_compute_s", to_seconds(t.phase[static_cast<int>(obs::Phase::kCompute)]),
      "virt_s");
  add("obs.phase_fetch_s", to_seconds(t.phase[static_cast<int>(obs::Phase::kBlockedFetch)]),
      "virt_s");
  add("obs.phase_monitor_s", to_seconds(t.phase[static_cast<int>(obs::Phase::kBlockedMonitor)]),
      "virt_s");
  add("obs.phase_barrier_s", to_seconds(t.phase[static_cast<int>(obs::Phase::kBarrier)]),
      "virt_s");
  add("obs.trace_overhead_frac", t.host_total / untraced - 1.0, "fraction");
  // Index of the point running `app` under protocol k, or -1.
  const auto find = [&](const std::string& app, int k) {
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      if (w.points[i].app == app && protocol_index(w.points[i].protocol) == k) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  const auto serve_of = [&](int k) -> const serve::ServeResult* {
    const int i = find("serve", k);
    return i < 0 ? nullptr : &*m.outcomes[static_cast<std::size_t>(i)]->serve;
  };
  // serve
  protos("serve.p50_us", [&](const std::string& n, int k) {
    add(n, serve_of(k) ? serve_of(k)->p50_us : 0.0, "virt_us");
  });
  protos("serve.p99_us", [&](const std::string& n, int k) {
    add(n, serve_of(k) ? serve_of(k)->p99_us : 0.0, "virt_us");
  });
  protos("serve.lost_keys", [&](const std::string& n, int k) {
    add(n, serve_of(k) ? static_cast<double>(serve_of(k)->lost_keys) : 0.0, "count");
  });
  // The ladder's rungs, named by offered load (8 clients x 2..8k ops/s).
  static const int kRungs[] = {16, 24, 32, 40, 48, 64};
  protos("serve.p999_us", [&](const std::string& n, int k) {
    for (std::size_t r = 0; r < std::size(kRungs); ++r) {
      const auto& rungs = t.ladder[static_cast<std::size_t>(k)];
      const double v = r < rungs.size() ? rungs[r].p999_us : 0.0;
      add(n + ".r" + std::to_string(kRungs[r]) + "k", v, "virt_us");
    }
  });
  add("serve.faultwin_ops", count(Counter::kServeFaultWinOps), "count");
  add("serve.gen_s", summarize(m.gen_s).median, "s");
  // apps
  for (const char* app : kAppNames) {
    protos(std::string("apps.virt_s.") + app, [&](const std::string& n, int k) {
      const int i = find(app, k);
      add(n, i < 0 ? 0.0 : to_seconds(m.outcomes[static_cast<std::size_t>(i)]->run.elapsed),
          "virt_s");
    });
  }
  for (const char* app : kAppNames) {
    protos(std::string("apps.host_s.") + app, [&](const std::string& n, int k) {
      const int i = find(app, k);
      add(n, i < 0 ? 0.0 : summarize(m.run_s[static_cast<std::size_t>(i)]).min, "s");
    });
  }
  add("apps.ref_s", w.ref_s, "s");
  // The end-to-end view of the virtual clock and of correctness.
  protos("p999_us", [&](const std::string& n, int k) {
    add(n, serve_of(k) ? serve_of(k)->p999_us : 0.0, "virt_us");
  });
  protos("max_rate_ops", [&](const std::string& n, int k) {
    // Highest offered load whose p999 meets 2 ms with no lost key.
    double best = 0;
    const auto& rungs = t.ladder[static_cast<std::size_t>(k)];
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      if (rungs[r].p999_us <= 2000.0 && rungs[r].lost_keys == 0) {
        const double clients = w.serve->params.clients_per_node * w.serve->cfg.nodes;
        best = std::max(best, w.serve->ladder_rates[r] * clients);
      }
    }
    add(n, best, "virt_ops/s");
  });
  add("failed_frac", ratio(static_cast<double>(m.failed), static_cast<double>(m.attempted)),
      "fraction");
  return out;
}

// --- output ----------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    s += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " + json_number(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

std::string samples_json(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i == 0 ? "" : ", ") + json_number(v[i]);
  return s + "]";
}

// Reads the digest to expect from a result file of an earlier run, which
// holds "virt_digest": "<16 hex digits>".
std::optional<std::string> read_expected_digest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::string key = "\"virt_digest\": \"";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return std::nullopt;
  const std::string digest = text.substr(at + key.size(), 16);
  if (digest.size() != 16 || digest.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return std::nullopt;
  }
  return digest;
}

int run(int argc, char** argv) {
  Cli cli(
      "hyp_benchmark — host and virtual time of java_ic, java_pf and hybrid on one "
      "workload (benchmark/README.md)");
  cli.flag_string("workload", "", "paper_n12 | scale_n256 | serve_read | serve_write_ha")
      .flag_int("seed", 0, "input seed (0 = the existing harnesses' inputs)")
      .flag_double("seconds", 15, "host seconds of repetitions to run")
      .flag_int("reps", 3, "minimum repetitions, however long they take")
      .flag_int("trace", 0, "1 = traced pass: per-layer metrics and a span trace")
      .flag_bool("smoke", false, "tiny sizes for a quick end-to-end check")
      .flag_string("out", "", "write <workload>.json (and .trace.json) into this directory")
      .flag_string("expect-digest", "",
                   "fail the run's checks unless virt_digest equals the one in this result file");
  if (!cli.parse(argc, argv)) return 0;
  // glibc raises its mmap threshold whenever a large block is freed, so
  // whether a VM's tables come from fresh zeroed pages or from recycled heap
  // depends on the allocation sizes before it, which follow the seed: the
  // same hybrid VM took 8 or 17 ms to build and peak RSS moved by 5%. Pin
  // the allocator in the state that threshold converges to (blocks up to
  // 32 MiB from the heap) and keep freed heap, so every repetition after
  // the first reuses memory the same way.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const std::string name = cli.get_string("workload");
  const std::int64_t seed = cli.get_int("seed");
  const double seconds = cli.get_double("seconds");
  const std::int64_t min_reps = cli.get_int("reps");
  const std::int64_t trace = cli.get_int("trace");
  const bool smoke = cli.get_bool("smoke");
  if (seed < 0 || !(seconds >= 0) || min_reps < 1 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "hyp_benchmark: need --seed >= 0, --seconds >= 0, --reps >= 1, --trace 0|1\n");
    return 2;
  }
  const std::string expect_path = cli.get_string("expect-digest");
  std::optional<std::string> expected;
  if (!expect_path.empty()) {
    expected = read_expected_digest(expect_path);
    if (!expected) {
      std::fprintf(stderr, "hyp_benchmark: --expect-digest: %s is not a readable result file "
                           "holding a virt_digest\n", expect_path.c_str());
      return 2;
    }
  }

  const Workload w = make_workload(name, static_cast<std::uint64_t>(seed), smoke);
  std::printf("# %s: %zu points, %d nodes, seed %" PRId64 "%s%s\n", w.name.c_str(),
              w.points.size(), w.nodes, seed, smoke ? ", smoke" : "",
              trace ? ", traced" : "");
  std::fflush(stdout);

  Measured m;
  m.outcomes.resize(w.points.size());
  m.digests.resize(w.points.size());
  m.diverged.resize(w.points.size());
  m.run_s.resize(w.points.size());
  m.setup_s.resize(w.points.size());
  // The traced pass gets the second half of the budget.
  const double budget = trace ? seconds / 2 : seconds;
  const auto start = Clock::now();
  for (int rep = 0;; ++rep) {
    run_rep(w, rep, m);
    const double elapsed = seconds_between(start, Clock::now());
    const double per_rep = elapsed / (rep + 1);
    if (rep + 1 >= min_reps && elapsed + per_rep > budget) break;
  }

  Fnv all_points;
  for (std::uint64_t d : m.digests) all_points.add(d);
  const std::string digest = hex64(all_points.value());
  if (expected) {
    m.attempted += 1;
    if (*expected != digest) {
      std::fprintf(stderr, "hyp_benchmark: virt_digest %s, expected %s (%s)\n", digest.c_str(),
                   expected->c_str(), expect_path.c_str());
      m.failed += 1;
    }
  }

  const std::vector<Metric> e2e = end_to_end(w, m);
  std::vector<Metric> layer;
  Tracer tracer;
  if (trace) layer = per_layer(w, m, traced_pass(w, smoke, m, tracer));

  const std::string out_dir = cli.get_string("out");
  if (!out_dir.empty()) {
    std::ostringstream js;
    js << "{\"schema\": \"hyp-benchmark-v1\", \"workload\": \"" << w.name
       << "\", \"seed\": " << seed << ", \"smoke\": " << (smoke ? "true" : "false")
       << ", \"traced\": " << (trace ? "true" : "false") << ", \"reps\": " << m.rep_s.size()
       << ", \"virt_digest\": \"" << digest << "\", \"correct\": "
       << (m.correct() ? "true" : "false") << ", \"attempted\": " << m.attempted
       << ", \"failed\": " << m.failed << ", \"lost\": " << m.lost
       << ",\n \"host_s_per_rep\": {";
    for (int k = 0; k < kProtocolCount; ++k) {
      std::vector<double> v;
      for (const auto& h : m.rep_s) v.push_back(h[static_cast<std::size_t>(k)]);
      const Summary s = summarize(v);
      js << (k == 0 ? "" : ", ") << "\"" << dsm::protocol_name(kProtocols[k])
         << "\": {\"min\": " << json_number(s.min) << ", \"q1\": " << json_number(s.q1)
         << ", \"median\": " << json_number(s.median) << ", \"q3\": " << json_number(s.q3)
         << ", \"samples\": " << samples_json(v) << "}";
    }
    js << "},\n \"end_to_end\": " << metrics_json(e2e);
    if (trace) js << ",\n \"per_layer\": " << metrics_json(layer);
    js << "}\n";
    const std::string path = out_dir + "/" + w.name + ".json";
    std::ofstream f(path);
    f << js.str();
    if (!f) {
      std::fprintf(stderr, "hyp_benchmark: cannot write %s\n", path.c_str());
      return 1;
    }
    if (trace && !tracer.write(out_dir + "/" + w.name + ".trace.json")) {
      std::fprintf(stderr, "hyp_benchmark: cannot write the trace into %s\n", out_dir.c_str());
      return 1;
    }
  }

  const std::vector<Metric>& shown = trace ? layer : e2e;
  std::printf("# %zu repetitions; virt_digest = %s; checks %" PRIu64 " attempted, %" PRIu64
              " failed, %" PRIu64 " of them keys with lost acked writes\n",
              m.rep_s.size(), digest.c_str(), m.attempted, m.failed, m.lost);
  for (const Metric& x : shown) {
    std::printf("%-44s %-20s %s\n", x.name.c_str(), json_number(x.value).c_str(),
                x.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              m.correct() ? "true" : "false", m.attempted, m.failed,
              metrics_json(shown).c_str());
  return 0;
}

}  // namespace
}  // namespace hyp::benchmark

int main(int argc, char** argv) { return hyp::benchmark::run(argc, argv); }
