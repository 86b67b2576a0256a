// Cluster cost-model parameters.
//
// The paper evaluates on two testbeds; their published constants anchor the
// model. Constants the paper states directly:
//   * 12x 200 MHz Pentium Pro, Myrinet/BIP, page fault cost 22 us
//   * 6x 450 MHz Pentium II, SCI/SISCI,   page fault cost 12 us
// Network figures come from the cited BIP paper (~10 us latency, ~125 MB/s)
// and contemporary SISCI measurements (~4 us, ~80 MB/s). The in-line check
// cost is expressed in CPU cycles so that it scales with the CPU clock the
// way the paper's discussion requires ("the faster speed of the processors
// ... makes the removal of the in-line checks relatively less important").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"

namespace hyp::cluster {

using NodeId = int;

struct NetworkParams {
  Time latency = 0;                    // one-way wire + NIC latency
  double bandwidth_bytes_per_sec = 0;  // payload streaming rate
  Time send_overhead = 0;              // sender-side protocol stack cost
  Time recv_overhead = 0;              // receiver-side dispatch cost

  // Wire time for a message of `bytes` payload (excluding end-point
  // overheads, which are charged to the respective CPUs/service queues).
  Time wire_time(std::size_t bytes) const {
    HYP_DCHECK(bandwidth_bytes_per_sec > 0);
    const double ps = static_cast<double>(bytes) * 1e12 / bandwidth_bytes_per_sec;
    return latency + static_cast<Time>(ps);
  }
};

// One scheduled service-degradation window on a node: while it is open the
// node's NIC either delays every arriving packet to the window's end (stall)
// or drops them outright (blackout). Deterministic by construction: windows
// are explicit virtual-time intervals, not sampled.
struct FaultWindow {
  NodeId node = -1;
  Time start = 0;
  Time duration = 0;
  bool blackout = false;  // false = stall (delay to end), true = drop
  Time end() const { return start + duration; }
  bool covers(Time at) const { return at >= start && at < end(); }
};

// One scheduled network partition: while the window is open, every packet
// between a node of group_a and a node of group_b (either direction) vanishes
// on the wire; traffic within a group — and to/from nodes in neither group —
// is untouched. Deterministic by construction: explicit virtual-time
// intervals, not sampled (docs/PARTITIONS.md).
struct PartitionWindow {
  Time start = 0;
  Time duration = 0;
  std::vector<NodeId> group_a;
  std::vector<NodeId> group_b;
  Time end() const { return start + duration; }
  bool covers(Time at) const { return at >= start && at < end(); }
  // 0 = group_a, 1 = group_b, -1 = not named by this window.
  int side_of(NodeId n) const {
    for (NodeId a : group_a) {
      if (a == n) return 0;
    }
    for (NodeId b : group_b) {
      if (b == n) return 1;
    }
    return -1;
  }
  bool severs(NodeId from, NodeId to, Time at) const {
    if (!covers(at)) return false;
    const int sf = side_of(from);
    const int st = side_of(to);
    return sf >= 0 && st >= 0 && sf != st;
  }
};

// A per-direction (asymmetric) link loss rate: packets from -> to drop with
// probability ppm, independent of the symmetric drop_ppm. The reverse
// direction is a separate token (docs/PARTITIONS.md).
struct LinkDrop {
  NodeId from = -1;
  NodeId to = -1;
  std::uint32_t ppm = 0;
};

// Reliable-transport tuning (engaged only when FaultProfile::lossy()): a
// packet is retransmitted at most kMaxRetransmits times, its timeout
// multiplied by kRtoBackoff after each attempt, before the call fails with
// RpcStatus::kBudgetExhausted. The initial timeout is FaultProfile::rto_initial.
inline constexpr std::uint32_t kMaxRetransmits = 10;
inline constexpr std::uint32_t kRtoBackoff = 2;

// Failure-detector timing (engaged only when crashes or partitions are
// scheduled). Heartbeats ride an out-of-band management path (not the
// faultable data transport); their latency is folded into kSuspectAfter.
// Every node heartbeats each kHeartbeatInterval; every chain watcher suspects
// a silent predecessor after kSuspectAfter and confirms it dead — triggering
// re-election of its home zones — after kConfirmAfter.
inline constexpr Time kHeartbeatInterval = 50 * kMicrosecond;
inline constexpr Time kSuspectAfter = 200 * kMicrosecond;
inline constexpr Time kConfirmAfter = 600 * kMicrosecond;
static_assert(kHeartbeatInterval > 0 && kSuspectAfter >= kHeartbeatInterval &&
                  kConfirmAfter > kSuspectAfter,
              "detector timing wants hb <= suspect < confirm");

// Deterministic fault-injection profile for the cluster's network layer.
//
// Every probabilistic decision is hash-derived (SplitMix64 finalizer) from
// (seed, endpoints, per-pair sequence number, transmission attempt, salt), so
// a faulty run is exactly as reproducible as a quiet one: the same seed gives
// byte-identical traces, a different seed gives an independent schedule of
// drops/dups/delays. All knobs default to off; a default-constructed profile
// leaves the delivery path bit-identical to the paper's lossless testbeds.
//
// Parsed from the `--fault-profile` grammar (docs/FAULTS.md), e.g.
//   drop2%,dup1%,reorder5us,seed=7
//   corrupt0.5%,rto=100us
//   blackout2@300us+150us,stall0@1ms+200us
//   partition@2ms+1ms:0.1|2.3,linkdrop=0>2:25%
struct FaultProfile {
  // Per-transmission perturbation rates in parts-per-million (integers keep
  // parsing and cross-platform arithmetic exact).
  std::uint32_t drop_ppm = 0;     // message vanishes on the wire
  std::uint32_t dup_ppm = 0;      // message is delivered twice
  std::uint32_t corrupt_ppm = 0;  // payload corrupted; checksum drops it
  Time reorder_max = 0;           // extra delivery delay in [0, reorder_max]
  std::uint64_t seed = 0;
  std::vector<FaultWindow> windows;  // node stall/blackout intervals
  // Crash/restart windows: while open the node's CPU and NIC are dead — every
  // arriving packet vanishes and the node executes nothing; at window end the
  // node restarts with no home authority (docs/RECOVERY.md). Parsed from
  // `crashN@Sus+Dus`. A crash window engages the HA subsystem (src/ha).
  std::vector<FaultWindow> crashes;
  // Network-partition windows (`partition@S+D:a.a|b.b`) and asymmetric link
  // loss rates (`linkdrop=F>T:P%`); see docs/PARTITIONS.md. A partition that
  // splits in-range nodes engages the HA subsystem with quorum promotion and
  // epoch fencing.
  std::vector<PartitionWindow> partitions;
  std::vector<LinkDrop> linkdrops;

  // First retransmit timeout of the reliable transport (engaged only when
  // lossy()). Token `rto=<dur>`.
  Time rto_initial = 200 * kMicrosecond;

  // Replication depth for HA home-state backups (docs/RECOVERY.md): each
  // home's zone is checkpointed to its `replicas` ring successors in chain
  // order, so any K simultaneous failures that leave one of the K+1 copies
  // alive are survivable. 1 (the default) is the classic single-failure
  // ring-successor model; K > 1 turns the checkpoints into real cluster
  // messages. Token `replicas=K` (K >= 1).
  std::uint32_t replicas = 1;

  // Lossy features require the ack/retransmit transport; pure reorder (the
  // old jitter knob) is delay-only and keeps the one-event-per-message path.
  bool lossy() const {
    return drop_ppm != 0 || dup_ppm != 0 || corrupt_ppm != 0 || !windows.empty() ||
           !crashes.empty() || !partitions.empty() || !linkdrops.empty();
  }
  bool any() const { return lossy() || reorder_max != 0; }

  // SplitMix64 finalizer — the same deterministic hash jitter_for used.
  static std::uint64_t mix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t hash(std::uint64_t key, std::uint64_t salt) const {
    return mix(mix(key ^ seed) + salt);
  }
  // One hash key per physical transmission attempt of one packet.
  static std::uint64_t packet_key(NodeId from, NodeId to, std::uint64_t seq,
                                  std::uint32_t attempt) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 48) ^
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(to)) << 40) ^
           (static_cast<std::uint64_t>(attempt) << 32) ^ mix(seq);
  }

  bool roll(std::uint32_t ppm, std::uint64_t key, std::uint64_t salt) const {
    if (ppm == 0) return false;
    return hash(key, salt) % 1000000u < ppm;
  }
  // Extra hash-derived delivery delay (the reorder / legacy-jitter knob).
  Time extra_delay(std::uint64_t key) const {
    if (reorder_max == 0) return 0;
    return static_cast<Time>(hash(key, kSaltReorder) %
                             static_cast<std::uint64_t>(reorder_max + 1));
  }

  // Sentinel returned by apply_windows when a blackout eats the packet
  // (Time is unsigned, so a negative sentinel cannot exist).
  static constexpr Time kDropped = ~Time{0};

  // Window adjustment for a packet arriving at `node` at `arrival`.
  // Returns the adjusted arrival time, or kDropped if a blackout (or a crash
  // window — a dead NIC receives nothing) eats it.
  Time apply_windows(NodeId node, Time arrival) const {
    for (const FaultWindow& w : windows) {
      if (w.node != node || !w.covers(arrival)) continue;
      if (w.blackout) return kDropped;
      arrival = w.end();  // stalled NICs deliver at window end; re-check
    }
    for (const FaultWindow& c : crashes) {
      if (c.node == node && c.covers(arrival)) return kDropped;
    }
    return arrival;
  }

  // If `node` is inside a crash window at `at`, returns the window end (the
  // restart instant); otherwise 0. Used to hold a crashed node's outbound
  // transmissions and to pace failover retries.
  Time crash_release(NodeId node, Time at) const {
    for (const FaultWindow& c : crashes) {
      if (c.node == node && c.covers(at)) return c.end();
    }
    return 0;
  }

  // True when a partition window open at `at` puts from/to on opposite sides:
  // the wire between them is cut and the packet vanishes.
  bool severed(NodeId from, NodeId to, Time at) const {
    for (const PartitionWindow& p : partitions) {
      if (p.severs(from, to, at)) return true;
    }
    return false;
  }
  // End of the last partition window severing from<->to that covers `at`
  // (the deterministic heal instant); 0 when the pair is not severed at `at`.
  Time severed_until(NodeId from, NodeId to, Time at) const {
    Time until = 0;
    for (const PartitionWindow& p : partitions) {
      if (p.severs(from, to, at) && p.end() > until) until = p.end();
    }
    return until;
  }
  // Start of the earliest partition window severing from<->to that covers
  // `at`; 0 when the pair is not severed at `at`. Paired with kConfirmAfter
  // to bound how long a caller parks before the surviving side has promoted.
  Time severed_since(NodeId from, NodeId to, Time at) const {
    Time since = 0;
    for (const PartitionWindow& p : partitions) {
      if (p.severs(from, to, at) && (since == 0 || p.start < since)) since = p.start;
    }
    return since;
  }
  // Latest heal instant among open partition windows naming `node`; 0 when no
  // open window lists it. While such a window is open the node's routing
  // epoch may be stale (the heal catch-up is what un-fences it), so a caller
  // whose requests are being epoch-fenced holds until this instant instead of
  // burning its retry budget against NACKs.
  Time partition_release(NodeId node, Time at) const {
    Time until = 0;
    for (const PartitionWindow& p : partitions) {
      if (p.covers(at) && p.side_of(node) >= 0 && p.end() > until) until = p.end();
    }
    return until;
  }
  // Asymmetric per-direction loss rate for from -> to (sums all matching
  // linkdrop tokens, saturating at certain loss).
  std::uint32_t linkdrop_ppm(NodeId from, NodeId to) const {
    std::uint64_t ppm = 0;
    for (const LinkDrop& l : linkdrops) {
      if (l.from == from && l.to == to) ppm += l.ppm;
    }
    return static_cast<std::uint32_t>(ppm < 1000000u ? ppm : 1000000u);
  }

  // Salts for the independent decision streams.
  static constexpr std::uint64_t kSaltDrop = 0x01;
  static constexpr std::uint64_t kSaltDup = 0x02;
  static constexpr std::uint64_t kSaltCorrupt = 0x03;
  static constexpr std::uint64_t kSaltReorder = 0x04;
  static constexpr std::uint64_t kSaltDupDelay = 0x05;
  static constexpr std::uint64_t kSaltLinkDrop = 0x06;

  // Parses the --fault-profile grammar. Malformed or semantically invalid
  // specs (zero-start crash windows, overlapping same-node crash windows,
  // replicas=0, partition groups that overlap or are empty, ...) are rejected
  // at parse time: a clear CLI diagnostic on stderr citing the grammar, then
  // exit(2) — never a mid-run abort. An empty spec yields the default (off).
  static FaultProfile parse(const std::string& spec);
  // Canonical round-trippable rendering (diagnostics, bench banners).
  std::string to_string() const;
};

struct CpuParams {
  double hz = 0;                  // CPU clock
  Time page_fault_cost = 0;       // trap + kernel + SIGSEGV dispatch (paper §4.2)
  Time mprotect_page_cost = 0;    // mprotect(2) on a single page
  Time mprotect_region_cost = 0;  // one mprotect spanning the whole DSM region
  std::uint64_t check_cycles = 0; // java_ic in-line locality check

  // Memory-subsystem work constants (cycles, scaled by the CPU clock).
  double copy_cycles_per_byte = 0.25;    // page memcpy (fetch, twin, apply)
  double diff_cycles_per_byte = 0.5;     // twin comparison at updateMainMemory
  std::uint64_t update_entry_cycles = 12;   // pack/apply one write-log field
  std::uint64_t invalidate_page_cycles = 2; // drop one cached page (bitmap)

  // Application compute does not speed up linearly with the clock (memory
  // stalls do not scale); charged app cycles are inflated by this factor.
  // The in-line check itself is register/L1 work and stays at check_cycles.
  // This is what makes check removal "relatively less important" on the
  // faster CPUs (paper §4.3).
  double app_cycle_scale = 1.0;

  // Scheduler timeslice: batched compute is presented to the node CPU in
  // slices of at most this length, so a co-resident thread's small burst is
  // delayed by one quantum, not by a sibling's entire batch — the
  // preemption real kernels provide.
  Time timeslice = 100 * kMicrosecond;

  Time cycles(std::uint64_t n) const { return cycles_at_hz(n, hz); }
  // App-code cycles, including the sub-linear clock scaling.
  Time app_cycles(std::uint64_t n) const {
    return cycles_f(app_cycle_scale * static_cast<double>(n));
  }
  // Fractional cycle totals (per-byte constants) rounded once at the end.
  Time cycles_f(double n) const {
    return n <= 0 ? 0 : cycles_at_hz(static_cast<std::uint64_t>(n + 0.5), hz);
  }
  Time check_cost() const { return cycles(check_cycles); }
  Time copy_cost(std::size_t bytes) const {
    return cycles_f(copy_cycles_per_byte * static_cast<double>(bytes));
  }
  Time diff_cost(std::size_t bytes) const {
    return cycles_f(diff_cycles_per_byte * static_cast<double>(bytes));
  }
};

struct ClusterParams {
  std::string name;
  int default_nodes = 0;  // cluster size used in the paper's figures
  NetworkParams net;
  CpuParams cpu;
  // Deterministic network fault injection; default-off (the paper's
  // interconnects were dedicated and lossless).
  FaultProfile fault;
  std::size_t page_bytes = 4096;

  // The two testbeds of the paper.
  static ClusterParams myrinet200();
  static ClusterParams sci450();
  // Resolves "myri200" / "sci450" by name (benchmark CLI).
  static ClusterParams by_name(const std::string& name);
};

}  // namespace hyp::cluster
