// Perfetto / Chrome trace_events JSON export for TraceLog.
//
// Converts the protocol event log into the Chrome trace-event JSON format
// (the `traceEvents` array form), directly openable in ui.perfetto.dev or
// chrome://tracing. Layout:
//
//   - one "process" per cluster node (pid = node id, named "node N");
//   - tid 0 "protocol": every raw TraceLog event as an instant, with its
//     payload decoded into named args (page/home/object/thread/bytes/...);
//   - tid = thread uid: "monitor_acquire" duration slices derived by pairing
//     kMonitorEnter with kMonitorAcquired (same node, object, uid) — lock
//     contention becomes visible as slice width;
//   - tid 999 "dsm fetch": "page_fetch" duration slices derived by pairing
//     kPageFault with the kPageFetch that services it (same node, page) —
//     java_pf remote-object detection latency as slice width. java_ic runs
//     have no fault events, so they produce instants only.
//
// Timestamps are virtual microseconds with picosecond fractions, printed
// with fixed-width integer arithmetic: the same TraceLog always serializes
// to byte-identical JSON (pinned by tests/goldens/perfetto_golden.json).
// The drop count (total and per kind) is always emitted in `otherData` so a
// saturated trace is never mistaken for a quiet run.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "cluster/trace.hpp"

namespace hyp::obs {

void write_perfetto_trace(std::ostream& os, const cluster::TraceLog& log);

// Incremental writer for TraceLog's double-buffered sink mode (what the
// bench binaries' --trace-out writes): the JSON header goes out up front,
// each drained buffer appends its events immediately (so memory stays
// bounded by the two log buffers however long the run), and finish() closes
// the file with the run totals. Both writers encode each event through one shared encoder, so
// their non-metadata records match; here track metadata is emitted lazily,
// the first time a node or java thread appears, and `otherData` trails the
// event array (its counts are only known at the end). The one-shot output
// is pinned byte-for-byte by tests/goldens/perfetto_golden.json.
class PerfettoStreamWriter {
 public:
  explicit PerfettoStreamWriter(std::ostream& os);
  ~PerfettoStreamWriter();
  PerfettoStreamWriter(const PerfettoStreamWriter&) = delete;
  PerfettoStreamWriter& operator=(const PerfettoStreamWriter&) = delete;

  // Sink target for TraceLog::set_sink: appends one drained buffer.
  void consume(const std::vector<cluster::TraceEvent>& batch);

  // Closes the JSON (call TraceLog::flush_sink() first so the tail buffer
  // has been consumed). `log` supplies the drop counters for `otherData` —
  // necessarily 0 in streaming mode, but emitted so consumers can assert it.
  void finish(const cluster::TraceLog& log);

  std::uint64_t events_written() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hyp::obs
