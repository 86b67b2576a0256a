#include "obs/perfetto.hpp"

#include <cinttypes>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>

namespace hyp::obs {

namespace {

using cluster::TraceEvent;
using cluster::TraceKind;
using cluster::TraceLog;

// tid hosting the derived page-fetch slices (clear of real thread uids,
// which are small dense integers).
constexpr int kFetchTid = 999;

// tid hosting the derived serve-op slices (one track per client node).
constexpr int kServeTid = 998;

// ts in virtual microseconds with picosecond fraction, integer arithmetic
// only: byte-stable across platforms/compilers.
std::string format_ts(Time at) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%06" PRIu64, at / kMicrosecond,
                at % kMicrosecond);
  return buf;
}

// Decoded args for one raw event, as a ready-to-embed JSON object body.
std::string event_args(const TraceEvent& e) {
  char buf[96];
  const auto a = static_cast<long long>(e.a);
  const auto b = static_cast<long long>(e.b);
  switch (e.kind) {
    case TraceKind::kPageFetch:
      std::snprintf(buf, sizeof(buf), "{\"page\":%lld,\"home\":%lld}", a, b);
      break;
    case TraceKind::kPageFault:
      std::snprintf(buf, sizeof(buf), "{\"page\":%lld}", a);
      break;
    case TraceKind::kInvalidate:
      std::snprintf(buf, sizeof(buf), "{\"pages\":%lld}", a);
      break;
    case TraceKind::kUpdateSent:
      std::snprintf(buf, sizeof(buf), "{\"home\":%lld,\"bytes\":%lld}", a, b);
      break;
    case TraceKind::kMonitorEnter:
    case TraceKind::kMonitorExit:
    case TraceKind::kMonitorWait:
    case TraceKind::kMonitorAcquired:
      std::snprintf(buf, sizeof(buf), "{\"object\":%lld,\"thread\":%lld}", a, b);
      break;
    case TraceKind::kMonitorNotify:
      std::snprintf(buf, sizeof(buf), "{\"object\":%lld,\"all\":%lld}", a, b);
      break;
    case TraceKind::kThreadStart:
      std::snprintf(buf, sizeof(buf), "{\"thread\":%lld}", a);
      break;
    case TraceKind::kThreadMigrate:
      std::snprintf(buf, sizeof(buf), "{\"from\":%lld,\"to\":%lld}", a, b);
      break;
    case TraceKind::kUpdateApplied:
      std::snprintf(buf, sizeof(buf), "{\"src\":%lld,\"bytes\":%lld}", a, b);
      break;
    case TraceKind::kNetDrop:
    case TraceKind::kRetransmit:
      std::snprintf(buf, sizeof(buf), "{\"dst\":%lld,\"seq\":%lld}", a, b);
      break;
    case TraceKind::kDupSuppressed:
      std::snprintf(buf, sizeof(buf), "{\"src\":%lld,\"seq\":%lld}", a, b);
      break;
    case TraceKind::kRpcTimeout:
      std::snprintf(buf, sizeof(buf), "{\"peer\":%lld,\"service\":%lld}", a, b);
      break;
    case TraceKind::kNodeCrash:
      std::snprintf(buf, sizeof(buf), "{\"restart_us\":%lld}", a);
      break;
    case TraceKind::kNodeRestart:
    case TraceKind::kHaRejoined:
      std::snprintf(buf, sizeof(buf), "{\"epoch\":%lld}", a);
      break;
    case TraceKind::kHaSuspected:
    case TraceKind::kHaDeadConfirmed:
      std::snprintf(buf, sizeof(buf), "{\"peer\":%lld,\"silence_us\":%lld}", a, b);
      break;
    case TraceKind::kHomePromoted:
      std::snprintf(buf, sizeof(buf), "{\"dead\":%lld,\"zone_bytes\":%lld}", a, b);
      break;
    case TraceKind::kEpochBump:
      std::snprintf(buf, sizeof(buf), "{\"epoch\":%lld,\"dead\":%lld}", a, b);
      break;
    case TraceKind::kHaNack:
      std::snprintf(buf, sizeof(buf), "{\"from\":%lld,\"service\":%lld}", a, b);
      break;
    case TraceKind::kCheckpoint:
      std::snprintf(buf, sizeof(buf), "{\"backup\":%lld,\"bytes\":%lld}", a, b);
      break;
    case TraceKind::kCheckpointApplied:
      std::snprintf(buf, sizeof(buf), "{\"origin\":%lld,\"bytes\":%lld}", a, b);
      break;
    case TraceKind::kRaceDetected:
      // b packs (tid_prev << 34) | (tid_cur << 4) | kind (obs/race.cpp).
      std::snprintf(buf, sizeof(buf),
                    "{\"addr\":%lld,\"tid_prev\":%lld,\"tid_cur\":%lld,\"kind\":%lld}", a,
                    static_cast<long long>(b >> 34),
                    static_cast<long long>((b >> 4) & 0x3fffffff),
                    static_cast<long long>(b & 0xf));
      break;
    case TraceKind::kHaPartition:
      std::snprintf(buf, sizeof(buf), "{\"open\":%lld,\"window\":%lld}", a, b);
      break;
    case TraceKind::kHaFencedReject:
      std::snprintf(buf, sizeof(buf), "{\"stale_epoch\":%lld,\"service\":%lld}", a, b);
      break;
    case TraceKind::kHaQuorumRead:
      std::snprintf(buf, sizeof(buf), "{\"page\":%lld,\"backup\":%lld}", a, b);
      break;
    case TraceKind::kServeOp:
      // b packs (latency_ps << 1) | is_update (src/serve/serve.cpp).
      std::snprintf(buf, sizeof(buf),
                    "{\"key\":%lld,\"latency_ps\":%lld,\"update\":%lld}", a,
                    static_cast<long long>(b >> 1),
                    static_cast<long long>(b & 1));
      break;
    case TraceKind::kModeSwitch:
      std::snprintf(buf, sizeof(buf), "{\"page\":%lld,\"to_ic\":%lld}", a, b);
      break;
    case TraceKind::kHomeMigrated:
      std::snprintf(buf, sizeof(buf), "{\"page\":%lld,\"new_home\":%lld}", a, b);
      break;
    default:
      std::snprintf(buf, sizeof(buf), "{\"a\":%lld,\"b\":%lld}", a, b);
      break;
  }
  return buf;
}

const char* event_category(TraceKind kind) {
  switch (kind) {
    case TraceKind::kPageFetch:
    case TraceKind::kPageFault:
    case TraceKind::kInvalidate:
    case TraceKind::kUpdateSent:
    case TraceKind::kUpdateApplied:
    case TraceKind::kModeSwitch:
    case TraceKind::kHomeMigrated:
      return "dsm";
    case TraceKind::kNetDrop:
    case TraceKind::kDupSuppressed:
    case TraceKind::kRetransmit:
    case TraceKind::kRpcTimeout:
      return "fault";
    case TraceKind::kMonitorEnter:
    case TraceKind::kMonitorExit:
    case TraceKind::kMonitorWait:
    case TraceKind::kMonitorNotify:
    case TraceKind::kMonitorAcquired:
      return "monitor";
    case TraceKind::kThreadStart:
    case TraceKind::kThreadMigrate:
      return "thread";
    case TraceKind::kNodeCrash:
    case TraceKind::kNodeRestart:
    case TraceKind::kHaSuspected:
    case TraceKind::kHaDeadConfirmed:
    case TraceKind::kHomePromoted:
    case TraceKind::kEpochBump:
    case TraceKind::kHaRejoined:
    case TraceKind::kHaNack:
    case TraceKind::kCheckpoint:
    case TraceKind::kCheckpointApplied:
    case TraceKind::kHaPartition:
    case TraceKind::kHaFencedReject:
    case TraceKind::kHaQuorumRead:
      return "ha";
    case TraceKind::kRaceDetected:
      return "race";
    case TraceKind::kServeOp:
      return "serve";
  }
  return "protocol";
}

class Emitter {
 public:
  explicit Emitter(std::ostream& os) : os_(os) {}

  void raw(const std::string& json_object) {
    os_ << (first_ ? "\n  " : ",\n  ") << json_object;
    first_ = false;
  }

  void metadata(int pid, int tid, const char* what, const std::string& name) {
    char buf[160];
    if (tid < 0) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}",
                    what, pid, name.c_str());
    } else {
      std::snprintf(
          buf, sizeof(buf),
          "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
          what, pid, tid, name.c_str());
    }
    raw(buf);
  }

  void instant(const TraceEvent& e) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,"
                  "\"pid\":%d,\"tid\":0,\"args\":%s}",
                  trace_kind_name(e.kind), event_category(e.kind),
                  format_ts(e.at).c_str(), e.node, event_args(e).c_str());
    raw(buf);
  }

  void slice(const char* name, const char* cat, Time begin, Time end, int pid, int tid,
             const std::string& args) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,"
                  "\"pid\":%d,\"tid\":%d,\"args\":%s}",
                  name, cat, format_ts(begin).c_str(), format_ts(end - begin).c_str(), pid,
                  tid, args.c_str());
    raw(buf);
  }

  // Counter track sample (ph "C"): one numeric series per (pid, name).
  void counter(const char* name, Time at, int pid, const char* series,
               std::int64_t value) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":%d,"
                  "\"args\":{\"%s\":%lld}}",
                  name, format_ts(at).c_str(), pid, series,
                  static_cast<long long>(value));
    raw(buf);
  }

  // Flow event endpoints (ph "s"/"f"): an arrow from the sender's track to
  // the receiver's track with a shared numeric id. The finish carries
  // bp:"e" so Perfetto binds it to the enclosing instant/slice.
  void flow(const char* name, const char* cat, char phase, std::uint64_t id, Time at, int pid,
            int tid) {
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",%s\"id\":%" PRIu64
                  ",\"ts\":%s,\"pid\":%d,\"tid\":%d}",
                  name, cat, phase, phase == 'f' ? "\"bp\":\"e\"," : "", id,
                  format_ts(at).c_str(), pid, tid);
    raw(buf);
  }

 private:
  std::ostream& os_;
  bool first_ = true;
};

// The per-event body both writers share, in event order: each event's
// instant, the epoch counter sample and the paired slices and flows:
//   page_fetch slice: last unmatched kPageFault on (node, page) -> kPageFetch;
//   monitor_acquire slice: kMonitorEnter -> kMonitorAcquired on
//     (node, object, uid);
//   update_flow arrows: each kUpdateSent on node S toward home H opens a flow
//     that the next kUpdateApplied on H from S closes. The cluster's per-pair
//     delivery is FIFO in virtual time, so a per-(src,home) id queue pairs
//     them exactly; an unmatched tail (trace capacity cut) simply leaves open
//     flows.
// A lazy encoder (the streaming writer) announces each track the first time
// it is written to; the one-shot writer announces every track up front.
class EventEncoder {
 public:
  EventEncoder(std::ostream& os, bool lazy_tracks) : emit(os), lazy_(lazy_tracks) {}

  void encode(const TraceEvent& e) {
    if (lazy_ && nodes_.insert(e.node).second) {
      emit.metadata(e.node, -1, "process_name", "node " + std::to_string(e.node));
      emit.metadata(e.node, 0, "thread_name", "protocol events");
    }
    emit.instant(e);
    // Epoch counter track: every kEpochBump bumps the cluster-wide routing
    // epoch; a "C" sample on the promoting node's process makes the step
    // visible as a staircase. HA-off runs record no such events, so the
    // golden trace is unaffected.
    if (e.kind == TraceKind::kEpochBump) {
      emit.counter("cluster_epoch", e.at, e.node, "epoch", e.a);
    }
    // node_down slice: kNodeCrash carries the scheduled restart time, so the
    // whole outage window is known at crash time.
    if (e.kind == TraceKind::kNodeCrash && e.a > 0) {
      const Time up_at = static_cast<Time>(e.a) * kMicrosecond;
      if (up_at > e.at) {
        emit.slice("node_down", "ha", e.at, up_at, e.node, 0, event_args(e));
      }
    }
    if (e.kind == TraceKind::kUpdateSent) {
      const std::uint64_t id = next_flow_id_++;
      update_flows_[{e.node, static_cast<int>(e.a)}].push_back(id);
      emit.flow("update_flow", "dsm", 's', id, e.at, e.node, 0);
    } else if (e.kind == TraceKind::kUpdateApplied) {
      auto it = update_flows_.find({static_cast<int>(e.a), e.node});
      if (it != update_flows_.end() && !it->second.empty()) {
        const std::uint64_t id = it->second.front();
        it->second.pop_front();
        emit.flow("update_flow", "dsm", 'f', id, e.at, e.node, 0);
      }
    }
    switch (e.kind) {
      case TraceKind::kPageFault:
        pending_fault_[{e.node, e.a}] = e.at;
        break;
      case TraceKind::kPageFetch: {
        auto it = pending_fault_.find({e.node, e.a});
        if (it != pending_fault_.end()) {
          track(fetch_tracks_, e.node, kFetchTid, "dsm fetch");
          emit.slice("page_fetch", "dsm", it->second, e.at, e.node, kFetchTid, event_args(e));
          pending_fault_.erase(it);
        }
        break;
      }
      case TraceKind::kMonitorEnter:
        pending_enter_[{e.node, e.a, e.b}] = e.at;
        java_thread(e.node, e.b);
        break;
      case TraceKind::kMonitorAcquired: {
        java_thread(e.node, e.b);
        auto it = pending_enter_.find({e.node, e.a, e.b});
        if (it != pending_enter_.end()) {
          emit.slice("monitor_acquire", "monitor", it->second, e.at, e.node,
                     static_cast<int>(e.b), event_args(e));
          pending_enter_.erase(it);
        }
        break;
      }
      case TraceKind::kServeOp: {
        // Retrospective: the completion event carries the open-loop latency,
        // so the [scheduled arrival, completion] span is known here.
        track(serve_tracks_, e.node, kServeTid, "serve ops");
        const Time latency = static_cast<Time>(e.b >> 1);
        const Time begin = latency > e.at ? Time{0} : e.at - latency;
        emit.slice((e.b & 1) ? "serve_put" : "serve_get", "serve", begin, e.at, e.node,
                   kServeTid, event_args(e));
        break;
      }
      default:
        break;
    }
  }

  Emitter emit;

 private:
  void track(std::set<int>& seen, int node, int tid, const char* name) {
    if (lazy_ && seen.insert(node).second) emit.metadata(node, tid, "thread_name", name);
  }
  void java_thread(int node, std::int64_t uid) {
    if (!lazy_ || !java_threads_.insert({node, uid}).second) return;
    emit.metadata(node, static_cast<int>(uid), "thread_name",
                  "java thread " + std::to_string(uid));
  }

  bool lazy_;
  std::set<int> nodes_;
  std::set<int> fetch_tracks_;
  std::set<int> serve_tracks_;
  std::set<std::pair<int, std::int64_t>> java_threads_;
  std::map<std::pair<int, int>, std::deque<std::uint64_t>> update_flows_;
  std::uint64_t next_flow_id_ = 1;
  std::map<std::pair<int, std::int64_t>, Time> pending_fault_;
  std::map<std::tuple<int, std::int64_t, std::int64_t>, Time> pending_enter_;
};

}  // namespace

void write_perfetto_trace(std::ostream& os, const TraceLog& log) {
  os << "{\"displayTimeUnit\":\"ns\",\n\"otherData\":{";
  os << "\"generator\":\"hyperion-repro obs (virtual time)\"";
  os << ",\"events_recorded\":" << log.events().size();
  os << ",\"trace_dropped\":" << log.dropped();
  {
    bool any = false;
    for (int k = 0; k < cluster::kTraceKindCount; ++k) {
      const auto kind = static_cast<TraceKind>(k);
      if (log.dropped(kind) == 0) continue;
      os << (any ? "," : ",\"trace_dropped_by_kind\":{");
      os << '"' << trace_kind_name(kind) << "\":" << log.dropped(kind);
      any = true;
    }
    if (any) os << '}';
  }
  os << "},\n\"traceEvents\":[";

  EventEncoder enc(os, /*lazy_tracks=*/false);

  // --- track metadata -------------------------------------------------------
  std::set<int> nodes;
  std::set<std::pair<int, std::int64_t>> monitor_threads;  // (node, uid)
  bool any_fault = false;
  bool any_serve = false;
  for (const TraceEvent& e : log.events()) {
    nodes.insert(e.node);
    if (e.kind == TraceKind::kPageFault) any_fault = true;
    if (e.kind == TraceKind::kServeOp) any_serve = true;
    if (e.kind == TraceKind::kMonitorEnter || e.kind == TraceKind::kMonitorAcquired) {
      monitor_threads.insert({e.node, e.b});
    }
  }
  for (int n : nodes) {
    enc.emit.metadata(n, -1, "process_name", "node " + std::to_string(n));
    enc.emit.metadata(n, 0, "thread_name", "protocol events");
    if (any_fault) enc.emit.metadata(n, kFetchTid, "thread_name", "dsm fetch");
    if (any_serve) enc.emit.metadata(n, kServeTid, "thread_name", "serve ops");
  }
  for (const auto& [node, uid] : monitor_threads) {
    enc.emit.metadata(node, static_cast<int>(uid), "thread_name",
                      "java thread " + std::to_string(uid));
  }

  for (const TraceEvent& e : log.events()) enc.encode(e);

  os << "\n]}\n";
}

// ---------------------------------------------------------------------------
// PerfettoStreamWriter

struct PerfettoStreamWriter::Impl {
  explicit Impl(std::ostream& out) : os(out), enc(out, /*lazy_tracks=*/true) {
    out << "{\"displayTimeUnit\":\"ns\",\n\"traceEvents\":[";
  }

  std::ostream& os;
  EventEncoder enc;
  bool finished = false;
  std::uint64_t events_written = 0;
};

PerfettoStreamWriter::PerfettoStreamWriter(std::ostream& os)
    : impl_(std::make_unique<Impl>(os)) {}

PerfettoStreamWriter::~PerfettoStreamWriter() = default;

void PerfettoStreamWriter::consume(const std::vector<TraceEvent>& batch) {
  for (const TraceEvent& e : batch) impl_->enc.encode(e);
  impl_->events_written += batch.size();
}

void PerfettoStreamWriter::finish(const TraceLog& log) {
  if (impl_->finished) return;
  impl_->finished = true;
  std::ostream& os = impl_->os;
  os << "\n],\n\"otherData\":{";
  os << "\"generator\":\"hyperion-repro obs (virtual time, streamed)\"";
  os << ",\"events_recorded\":" << impl_->events_written;
  os << ",\"trace_dropped\":" << log.dropped();
  os << "}}\n";
}

std::uint64_t PerfettoStreamWriter::events_written() const { return impl_->events_written; }

}  // namespace hyp::obs
