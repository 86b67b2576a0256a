// Protocol event tracing.
//
// A lightweight, allocation-free-at-record-time event log with virtual
// timestamps: each record is (time, node, kind, three integer arguments).
// The DSM and monitor subsystems emit events when a TraceLog is attached to
// the Cluster; with none attached the hooks cost one pointer test.
// Deterministic simulations make traces diffable run-to-run — the primary
// protocol-debugging tool of this repository (see protocol_tour --trace).
//
// Consumers: write_text() for human eyes, obs::write_perfetto_trace() for a
// Chrome/Perfetto trace_events JSON openable in ui.perfetto.dev
// (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace hyp::cluster {

enum class TraceKind : std::uint8_t {
  kPageFetch,        // a=page, b=home
  kPageFault,        // a=page (java_pf detection)
  kInvalidate,       // a=pages dropped
  kUpdateSent,       // a=dest(home), b=bytes
  kMonitorEnter,     // a=object gva, b=thread uid (request issued)
  kMonitorExit,      // a=object gva, b=thread uid
  kMonitorWait,      // a=object gva, b=thread uid
  kMonitorNotify,    // a=object gva, b=all?1:0
  kThreadStart,      // a=thread uid
  kThreadMigrate,    // a=from node, b=to node
  kMonitorAcquired,  // a=object gva, b=thread uid (grant received; pairs
                     // with kMonitorEnter for acquire-wait slices)
  kUpdateApplied,    // a=src node, b=bytes/entries applied (home side; pairs
                     // with kUpdateSent for cross-node flow events)
  // --- fault-injection / reliable transport (docs/FAULTS.md) ---------------
  kNetDrop,          // a=dst node, b=pair seq (injected drop/corrupt/blackout)
  kDupSuppressed,    // a=src node, b=pair seq (receiver dedup hit)
  kRetransmit,       // a=dst node, b=pair seq (sender timer fired)
  kRpcTimeout,       // a=peer node, b=service (call deadline or retry budget)
  // --- high availability (docs/RECOVERY.md) --------------------------------
  kNodeCrash,        // a=restart time (us), b=0 (node field = dying node)
  kNodeRestart,      // a=epoch at restart
  kHaSuspected,      // a=suspect node, b=silence (us) (node = watcher)
  kHaDeadConfirmed,  // a=dead node, b=silence (us) (node = watcher)
  kHomePromoted,     // a=dead node whose zone moved, b=zone bytes (node = backup)
  kEpochBump,        // a=new epoch, b=dead node
  kHaRejoined,       // a=epoch at rejoin (node = restarted node)
  kHaNack,           // a=requesting node, b=service (stale-home request refused)
  kCheckpoint,       // a=dest (chain member), b=message bytes (home-state
                     // replication traffic; one event per checkpoint message
                     // transmitted, or per piggyback batch in legacy mode)
  kCheckpointApplied,// a=origin home, b=message bytes (chain member absorbed
                     // a checkpoint message from the modeled stream)
  // --- race detection (docs/RACES.md) --------------------------------------
  kRaceDetected,     // a=address, b=(tid_prev<<34)|(tid_cur<<4)|kind; emitted
                     // once per deduplicated race (node = detecting access)
  // --- network partitions (docs/PARTITIONS.md) -----------------------------
  kHaPartition,      // a=1 open / 0 heal, b=partition window index
  kHaFencedReject,   // a=stale epoch seen, b=service (node = rejecting side)
  kHaQuorumRead,     // a=page, b=serving chain backup (node = reader)
  // --- serving workload (docs/SERVING.md) ----------------------------------
  kServeOp,          // a=key, b=(latency_ps<<1)|is_update; emitted at op
                     // completion (node = client node) — the Perfetto
                     // exporter turns this into a retrospective `serve` slice
                     // spanning [scheduled arrival, completion]
  // --- adaptive hybrid protocol (docs/PROTOCOLS.md §hybrid) ----------------
  kModeSwitch,       // a=page, b=1 switched to ic-mode / 0 to pf-mode
                     // (node = the node whose per-page mode flipped)
  kHomeMigrated,     // a=page, b=new home node (node = old home)
};

// Keep in sync with the enum above (drop accounting is per kind).
inline constexpr int kTraceKindCount = 33;

const char* trace_kind_name(TraceKind kind);

struct TraceEvent {
  Time at;
  int node;
  TraceKind kind;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

class TraceLog {
 public:
  // Bounded: recording beyond the capacity drops the *newest* events —
  // oldest-first semantics are NOT wanted for debugging; instead recording
  // stops (and drops are counted, totals and per kind) so the beginning of
  // the run — usually what matters — is kept. The backing store is reserved
  // up front so record() never allocates (tests/obs_alloc_test.cpp).
  //
  // Streaming mode (set_sink) lifts the bound: when the front buffer fills,
  // it is swapped with an equally pre-reserved back buffer and handed to the
  // sink — the classic double-buffered logger shape (cf. rDSN's hpc_logger).
  // Nothing is ever dropped in streaming mode, and record() still never
  // allocates once both buffers are reserved.
  explicit TraceLog(std::size_t capacity = 1 << 16) : capacity_(capacity) {
    events_.reserve(capacity);
  }

  using Sink = std::function<void(const std::vector<TraceEvent>&)>;

  // Attaches an incremental consumer and reserves the back buffer. The sink
  // is called with each full buffer in record order; flush_sink() hands over
  // whatever remains. Call before recording starts.
  void set_sink(Sink sink) {
    sink_ = std::move(sink);
    spare_.reserve(capacity_);
  }

  // Drains the partially-filled front buffer to the sink (end of run).
  void flush_sink() {
    if (!sink_ || events_.empty()) return;
    events_.swap(spare_);
    sink_(spare_);
    spare_.clear();
  }

  void record(Time at, int node, TraceKind kind, std::int64_t a, std::int64_t b) {
    if (events_.size() >= capacity_) {
      if (sink_) {
        // Swap-and-drain: the filled buffer goes out, recording continues
        // into the (already reserved) other buffer.
        events_.swap(spare_);
        sink_(spare_);
        spare_.clear();
      } else {
        ++dropped_;
        ++dropped_by_kind_[static_cast<int>(kind)];
        return;
      }
    }
    events_.push_back({at, node, kind, a, b});
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t dropped(TraceKind kind) const {
    return dropped_by_kind_[static_cast<int>(kind)];
  }
  void clear() {
    events_.clear();
    spare_.clear();
    dropped_ = 0;
    for (auto& d : dropped_by_kind_) d = 0;
  }

  // Count of events of one kind *observed*, including any dropped at
  // capacity — a saturated trace must not silently skew event totals.
  // recorded() gives just the events retained in the log.
  std::size_t count(TraceKind kind) const {
    return recorded(kind) + static_cast<std::size_t>(dropped(kind));
  }
  std::size_t recorded(TraceKind kind) const;

  // Human-readable dump: one event per line, virtual microsecond timestamps.
  // Always ends with the drop count when any event was dropped.
  void write_text(std::ostream& os, std::size_t limit = ~std::size_t{0}) const;

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> events_;
  std::vector<TraceEvent> spare_;  // back buffer (streaming mode only)
  Sink sink_;
  std::uint64_t dropped_ = 0;
  std::uint64_t dropped_by_kind_[kTraceKindCount] = {};
};

}  // namespace hyp::cluster
