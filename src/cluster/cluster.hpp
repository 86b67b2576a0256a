// The simulated cluster and its PM2-like communication layer.
//
// PM2's communication subsystem exposes RPCs: "message handlers being
// asynchronously invoked on the receiving end" (paper, Table 1). We model
// exactly that: a node registers handlers for service ids; send() delivers a
// payload after the network delay; handlers run as event-driven state
// machines on the receiving node and may answer request/reply invocations
// with reply(). call() gives the Hyperion runtime the blocking LRPC shape it
// is built from.
//
// Timing model:
//   departure  = now + send_overhead                 (sender NIC/stack)
//   arrival    = departure + latency + bytes/bandwidth
//   exec start = max(arrival, node service queue free) + recv_overhead
// The per-node FIFO service queue makes hot homes a contention point, which
// the paper's Barnes discussion depends on. Handlers must not block; they
// queue state and reply later instead (see hyperion/monitor.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/params.hpp"
#include "cluster/trace.hpp"
#include "common/buffer.hpp"
#include "common/id_window.hpp"
#include "common/stats.hpp"
#include "obs/phase.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace hyp::cluster {

using ServiceId = int;

class Cluster;
struct HaHooks;
struct RaceHooks;

// An incoming RPC invocation as seen by a handler.
struct Incoming {
  NodeId from = -1;
  NodeId to = -1;
  BufferReader reader;        // positioned at the start of the payload
  std::uint64_t reply_token;  // 0 for one-way sends
};

using Handler = std::function<void(Incoming&)>;

// --- typed RPC failure (docs/FAULTS.md) -------------------------------------
//
// On a lossless network (FaultProfile off) RPCs cannot fail and call() keeps
// its historical always-succeeds contract. Under an active fault profile a
// blocking call can fail in bounded, *typed* ways instead of hanging the
// fiber or tripping the engine's generic deadlock abort.
enum class RpcStatus : std::uint8_t {
  kOk = 0,
  kBudgetExhausted,  // request packet unacked after kMaxRetransmits retransmits
  kTimeout,          // the reply was undeliverable: its packet exhausted the
                     // retry budget or was failed over from a dead replier
  kNoQuorum,         // the peer sits across an open partition window; the
                     // caller should park and retry at the heal instant
                     // (docs/PARTITIONS.md)
};

const char* rpc_status_name(RpcStatus s);

struct RpcError {
  RpcStatus status = RpcStatus::kOk;
  NodeId from = -1;
  NodeId to = -1;
  ServiceId service = -1;
  std::uint32_t retransmits = 0;  // transport attempts burned on the request
  Time waited = 0;                // virtual time from call start to failure
  std::string message;            // human diagnostic naming node + service

  bool ok() const { return status == RpcStatus::kOk; }
};

// Result of a non-aborting blocking call. `error` is meaningful iff !ok().
struct RpcResult {
  RpcStatus status = RpcStatus::kOk;
  Buffer payload;
  RpcError error;

  bool ok() const { return status == RpcStatus::kOk; }
};

// One machine of the cluster.
class Node {
 public:
  Node(Cluster* cluster, NodeId id);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  Cluster& cluster() { return *cluster_; }

  // Registers the handler for `service` on this node. One handler per id.
  // The named overload also records a cluster-wide human label for the id,
  // used by RPC failure diagnostics ("monitor_enter" beats "service 20").
  void register_service(ServiceId service, Handler handler);
  void register_service(ServiceId service, const char* name, Handler handler);

  // Extends the current service occupancy (e.g. a page-copy memcpy performed
  // by the DSM server). Returns the time at which the extended service ends;
  // replies that depend on that work should be sent with that delay.
  Time extend_service(TimeDelta duration);

  sim::FifoServer& service_queue() { return service_; }
  // The node's application CPU: threads of one node serialize their compute
  // through this (one processor per node, as on the paper's testbeds), which
  // is what makes the >1-thread-per-node extension study meaningful —
  // extra threads can only overlap *communication*, not computation.
  sim::FifoServer& app_cpu() { return app_cpu_; }
  Stats& stats() { return stats_; }

 private:
  friend class Cluster;
  Cluster* cluster_;
  NodeId id_;
  sim::FifoServer service_;
  sim::FifoServer app_cpu_;
  // Flat table indexed by service id (ids are small dense constants); an
  // empty Handler slot means "not registered". Dispatch is one bounds check
  // and one indexed load instead of a std::map walk per message.
  std::vector<Handler> handlers_;
  Stats stats_;
};

// Charges CPU time to the calling fiber, batched: hot paths accumulate into
// a counter and flush() converts the total into one virtual-time sleep at
// the next synchronization or communication point. Exact for data-race-free
// programs (the only ones the Java Memory Model gives determinate answers
// for anyway).
class CpuClock {
 public:
  explicit CpuClock(const CpuParams* cpu) : cpu_(cpu) {}

  void charge(Time t) { pending_ += t; }
  // Application compute: subject to the sub-linear clock scaling. App loops
  // charge the same constant cycle count once per element, so the
  // cycles->time conversion (double multiply + divide in app_cycles) is
  // memoized on the last argument; app_cycles is a pure function of n, so
  // the cached value is exactly what the call would have produced.
  void charge_cycles(std::uint64_t n) {
    if (n != memo_cycles_) {
      memo_cycles_ = n;
      memo_time_ = cpu_->app_cycles(n);
    }
    pending_ += memo_time_;
  }

  // Binds the clock to a node CPU: flushes then contend for the processor
  // FIFO instead of advancing free-running (multiple threads per node).
  void bind_cpu(sim::FifoServer* cpu_server) { cpu_server_ = cpu_server; }

  void flush() {
    if (pending_ == 0) return;
    total_ += pending_;
    if (cpu_server_ == nullptr) {
      sim::Engine::current()->sleep_for(pending_);
      pending_ = 0;
      return;
    }
    // Present the batch to the node CPU in timeslice quanta so co-resident
    // threads interleave as they would under a preemptive scheduler.
    const Time quantum = cpu_->timeslice > 0 ? cpu_->timeslice : pending_;
    while (pending_ != 0) {
      const Time slice = pending_ < quantum ? pending_ : quantum;
      pending_ -= slice;
      cpu_server_->serve(slice);
    }
  }

  Time pending() const { return pending_; }
  Time total_charged() const { return total_; }
  const CpuParams& cpu() const { return *cpu_; }

 private:
  const CpuParams* cpu_;
  sim::FifoServer* cpu_server_ = nullptr;
  Time pending_ = 0;
  Time total_ = 0;
  // charge_cycles memo (app_cycles(0) == 0, so the zero init is consistent).
  std::uint64_t memo_cycles_ = 0;
  Time memo_time_ = 0;
};

class Cluster {
 public:
  // `nodes` <= 0 selects the preset's paper-figure size.
  explicit Cluster(ClusterParams params, int nodes = 0);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int node_count() const { return static_cast<int>(nodes_.size()); }
  Node& node(NodeId id);
  const ClusterParams& params() const { return params_; }
  sim::Engine& engine() { return engine_; }

  // One-way asynchronous RPC (PM2 "RPC with no waiting").
  void send(NodeId from, NodeId to, ServiceId service, Buffer payload);

  // Blocking request/reply (PM2 LRPC). Must be called from a fiber; the
  // fiber sleeps in virtual time until the reply arrives. Under an active
  // lossy fault profile a failed call (retry budget exhausted / reply
  // undeliverable) aborts with a diagnostic naming the peer node and
  // service; callers that can degrade gracefully use call_result() instead.
  Buffer call(NodeId from, NodeId to, ServiceId service, Buffer payload);

  // As call(), but failures come back as a typed RpcError instead of
  // aborting. On a lossless network this is exactly call() (it cannot fail,
  // and compiles to the same event sequence — the determinism goldens hold).
  RpcResult call_result(NodeId from, NodeId to, ServiceId service, Buffer payload);

  // Human label for a service id ("page_request", or "service 17" when the
  // registrant did not name it).
  std::string service_label(ServiceId service) const;

  // True when the configured fault profile engages the reliable transport.
  bool transport_active() const { return lossy_; }
  // How many (from, to) pairs hold a vector of unacked packets: the busy
  // ones, plus those whose last ack landed since the latest enqueue.
  std::size_t transport_pairs_holding_packets() const;

  // --- event-queue sharding (docs/SCALING.md) ------------------------------
  // At/above this node count the constructor splits the engine's event queue
  // into one shard per node and pins each node's handler executions, thread
  // fibers and arrival events to its shard. Purely an executor-layout choice:
  // the (at, seq) pop order — and therefore every golden — is bit-identical
  // with or without sharding; small clusters keep the flat single-heap path.
  static constexpr int kShardNodeThreshold = 64;
  bool sharded() const { return sharded_; }
  std::uint32_t node_shard(NodeId id) const {
    return sharded_ ? static_cast<std::uint32_t>(id) : 0;
  }

  // --- high availability (optional; nullptr = off, docs/RECOVERY.md) -------
  // With hooks installed the transport (1) holds a crashed node's outbound
  // transmissions until its restart, (2) gives up fast on packets addressed
  // to a confirmed-dead node, (3) discards rather than panics on one-way
  // sends to a confirmed-dead node, and (4) permits loopback RPCs (after a
  // promotion a node may be its own home and retried ops must still flow
  // through the handler-side dedup).
  void set_ha_hooks(HaHooks* ha) { ha_ = ha; }
  HaHooks* ha_hooks() { return ha_; }
  // Heat-driven home migration (hybrid protocol) can make a node its own
  // home mid-call, exactly like an HA promotion — the reroute then needs the
  // same loopback allowance even with no HA manager installed.
  void allow_loopback() { loopback_ok_ = true; }
  // Fails over in-flight traffic around a confirmed-dead node: every
  // outstanding packet addressed to it gives up now (typed errors reach the
  // parked callers, which re-route), and every reply packet it still owed
  // fails its caller likewise. The dead node's own outstanding *requests*
  // stay queued — they ride the outbound hold until its restart.
  void ha_fail_traffic_to(NodeId dead);

  // Sends the reply for `incoming.reply_token`; `depart_delay` delays the
  // departure (e.g. until reserved service work completes).
  void reply(const Incoming& incoming, Buffer payload, TimeDelta depart_delay = 0);

  // As reply(), for handlers that stored the caller's coordinates and answer
  // long after the Incoming is gone (e.g. a monitor granting a queued enter).
  void reply_to(NodeId replier, NodeId requester, std::uint64_t reply_token, Buffer payload,
                TimeDelta depart_delay = 0);

  // Runs `body` as a fiber logically placed on node `on`; PM2 remote thread
  // creation. Returns the fiber for joining.
  sim::Fiber* spawn_thread(NodeId on, std::string name, UniqueFunction<void()> body);

  // Drives the simulation to quiescence; aborts on deadlocked fibers.
  void run();

  // Aggregated statistics over all nodes.
  Stats total_stats() const;

  // --- protocol event tracing (optional; nullptr = off) --------------------
  void set_trace(TraceLog* trace) { trace_ = trace; }
  TraceLog* trace() { return trace_; }
  void trace_event(NodeId node, TraceKind kind, std::int64_t a = 0, std::int64_t b = 0) {
    if (trace_ != nullptr) [[unlikely]] {
      trace_->record(engine_.now(), node, kind, a, b);
    }
  }

  // --- race-detector message hook (optional; nullptr = off) ----------------
  // Same attachment discipline as tracing: one pointer test when detached;
  // an installed hook only accumulates (cluster/race_hooks.hpp), so the
  // event sequence and every golden are unchanged either way.
  void set_race_hooks(RaceHooks* race) { race_ = race; }
  RaceHooks* race_hooks() { return race_; }

  // --- phase accounting (optional; nullptr = off) ---------------------------
  // Same attachment discipline as tracing: a nullptr pointer costs one test
  // on the hook path, and an attached table only *accumulates* (obs/phase.hpp)
  // so virtual time is unperturbed either way.
  void set_phases(obs::PhaseAccounting* phases) { phases_ = phases; }
  obs::PhaseAccounting* phases() { return phases_; }
  void phase_add(NodeId node, obs::Phase phase, TimeDelta dt) {
    if (phases_ != nullptr) [[unlikely]] {
      phases_->add(node, phase, dt);
    }
  }

 private:
  // A blocking call in flight, on either transport; it lives on the caller's
  // stack and is reached through its slot of the call table.
  struct PendingCall {
    sim::Fiber* waiter = nullptr;
    Buffer payload;
    bool done = false;
    RpcError error;  // status != kOk on failure (lossy transport only)
    // Identity, for diagnostics.
    NodeId from = -1;
    NodeId to = -1;
    ServiceId service = -1;
    Time started = 0;
  };
  // One slot of the call table: the call it holds (nullptr = free) and how
  // many calls it has held. A call's token is its slot index, with that
  // count in the high 32 bits: lookup is one indexed load, and a reply that
  // outlives its call (lossy transport) cannot match the slot's next call.
  struct CallSlot {
    PendingCall* call = nullptr;
    std::uint32_t uses = 0;
  };

  // Computes arrival and schedules handler execution.
  void deliver(TimeDelta depart_delay, NodeId from, NodeId to, ServiceId service, Buffer payload,
               std::uint64_t reply_token);
  void deliver_reply(TimeDelta depart_delay, NodeId from, NodeId to, std::uint64_t token,
                     Buffer payload);
  // An arrived request, on either transport: contends for `dst`'s service
  // queue, then runs the service's handler.
  void dispatch_request(Node& dst, NodeId from, ServiceId service, std::uint64_t token,
                        Buffer payload);

  // --- reliable transport (engaged only when the fault profile is lossy) ---
  //
  // Beneath send()/call(), every logical message becomes a transport packet
  // with a per-(src,dst) sequence number. The sender keeps the payload until
  // the receiver's ack arrives, retransmitting on a timer with exponential
  // backoff up to kMaxRetransmits times; the receiver suppresses
  // duplicates with a per-pair watermark + bitmap window and re-acks them
  // (the original ack may itself have been lost). Quiet networks never
  // reach this code: deliver()/deliver_reply() keep the historical
  // one-event-per-message path, bit-identical to the goldens.
  static constexpr Time kNoAck = ~Time{0};

  struct TxPacket {
    NodeId from = -1;
    NodeId to = -1;
    ServiceId service = -1;        // -1 for reply packets
    std::uint64_t token = 0;       // call token (request) / reply token (reply)
    bool is_reply = false;
    Buffer payload;                // retained for retransmission
    std::uint64_t seq = 0;         // per-(from,to) sequence number
    std::uint32_t retransmits = 0;
    Time first_sent = 0;
    Time rto = 0;                  // current retransmit timeout
    // The current attempt's retransmit timer: its instant and the event seq
    // reserved for it at transmission (queued only when it can fire on an
    // unacked packet, docs/FAULTS.md).
    Time timer_at = 0;
    std::uint64_t timer_seq = 0;
    // An ack applied without an event lands at (ack_at, ack_seq); the packet
    // counts as acked once dispatch passes that point (tx_acked).
    Time ack_at = kNoAck;
    std::uint64_t ack_seq = 0;
  };

  struct PairState {
    NodeId from = -1;  // identity (the sparse store iterates slots)
    NodeId to = -1;
    std::uint64_t next_seq = 0;  // sender side
    // Unacked packets in ascending seq (seqs are issued in order, so
    // appending keeps it sorted). A drained pair hands its capacity to
    // Cluster::tx_spare_, so idle pairs own no heap memory. A packet acked in
    // place stays until tx_reap erases it after its ack has landed.
    std::vector<TxPacket> outstanding;
    // Receiver-side dedup window: everything below the watermark has been
    // delivered; seqs above it that arrived early are bits in seen_above.
    std::uint64_t seen_watermark = 0;
    IdWindow seen_above;
  };

  // Sparse pair-state lookup: creates the (from,to) entry on first use.
  // pair_find() never creates (recovery paths probing both directions).
  PairState& pair(NodeId from, NodeId to);
  PairState* pair_find(NodeId from, NodeId to);
  void pair_rehash(std::size_t new_size);
  static std::uint64_t pair_packed(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
           static_cast<std::uint32_t>(to);
  }
  // Enqueues a packet on the reliable transport and transmits it.
  void tx_enqueue(TimeDelta depart_delay, NodeId from, NodeId to, ServiceId service,
                  std::uint64_t token, bool is_reply, Buffer payload);
  // One physical transmission attempt (first send and retransmits). Every
  // event of a packet's life holds its PairState (slots never move), so
  // only tx_enqueue looks the pair up.
  void tx_transmit(PairState& ps, std::uint64_t seq, TimeDelta depart_delay);
  // `carries_timer`: this copy's arrival queues the attempt's timer.
  void tx_schedule_arrival(PairState& ps, const TxPacket& p, Time arrival, bool carries_timer);
  void tx_post_timer(PairState& ps, const TxPacket& p);
  void tx_on_arrival(PairState& ps, ServiceId service, std::uint64_t token, bool is_reply,
                     Buffer payload, std::uint64_t seq, bool carries_timer);
  void tx_send_ack(PairState& ps, std::uint64_t seq, bool carries_timer);
  void tx_on_ack(PairState& ps, std::uint64_t seq);
  void tx_on_timer(PairState& ps, std::uint64_t seq);
  void tx_give_up(TxPacket packet, bool no_quorum = false);
  // True once `p`'s in-place ack has landed (dispatch passed it).
  bool tx_acked(const TxPacket& p) const {
    return p.ack_at != kNoAck && engine_.dispatched_before(p.ack_at, p.ack_seq);
  }
  // The packet `seq` of ps.outstanding, acked in place or not, or nullptr.
  static TxPacket* tx_slot(PairState& ps, std::uint64_t seq);
  // The outstanding packet `seq` of `ps`, or nullptr once acked/cancelled.
  TxPacket* tx_find(PairState& ps, std::uint64_t seq);
  // Removes `p` (a packet of ps.outstanding) and returns it.
  TxPacket tx_take(PairState& ps, TxPacket* p);
  // Erases the packets of tx_acked_ whose ack has landed, in the order the
  // acks were applied, handing every drained vector but `enqueuing`'s to
  // tx_spare_. Runs at each enqueue.
  void tx_reap(const PairState& enqueuing);
  // The call `token` names, or nullptr once it has returned.
  PendingCall* find_call(std::uint64_t token) {
    const auto idx = static_cast<std::uint32_t>(token);
    if (idx >= call_slots_.size()) return nullptr;
    const CallSlot& slot = call_slots_[idx];
    return slot.uses == token >> 32 ? slot.call : nullptr;
  }
  void complete_call(std::uint64_t token, Buffer payload);
  void fail_call(PendingCall& call, RpcStatus status, std::uint32_t retransmits);
  RpcError make_error(RpcStatus status, NodeId from, NodeId to, ServiceId service,
                      std::uint32_t retransmits, Time waited) const;
  void record_service_name(ServiceId service, const char* name);
  friend class Node;

  ClusterParams params_;
  sim::Engine engine_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // The call table (see CallSlot); freed slots recycle through call_free_,
  // so steady-state call() never allocates.
  std::vector<CallSlot> call_slots_;
  std::vector<std::uint32_t> call_free_;
  std::uint64_t message_seq_ = 0;  // drives deterministic jitter
  TraceLog* trace_ = nullptr;
  obs::PhaseAccounting* phases_ = nullptr;
  HaHooks* ha_ = nullptr;
  RaceHooks* race_ = nullptr;
  bool loopback_ok_ = false;  // see allow_loopback()

  bool sharded_ = false;  // event queue split one-shard-per-node

  // Reliable-transport state (empty/idle unless lossy_).
  //
  // The pair store is sparse: slots are created on first communication, in
  // creation order — that vector doubles as the occupancy index (exactly the
  // pairs that have ever carried traffic), and an open-addressing table maps
  // packed (from,to) to its slot. Memory is linear in communicating pairs,
  // not quadratic in the node count; PairState references stay stable across
  // insertions because slots are unique_ptrs.
  bool lossy_ = false;
  std::vector<std::unique_ptr<PairState>> pair_slots_;  // creation order
  std::vector<std::uint32_t> pair_table_;  // open addressing: slot+1, 0 empty
  // Drained outstanding vectors, capacity kept for the next busy pair.
  std::vector<std::vector<TxPacket>> tx_spare_;
  // Packets acked in place, in the order their acks were applied; entries
  // before tx_acked_head_ are reaped (tx_reap).
  struct TxAcked {
    PairState* ps;
    std::uint64_t seq;
  };
  std::vector<TxAcked> tx_acked_;
  std::size_t tx_acked_head_ = 0;
  std::vector<std::string> service_names_;  // [service id] -> label ("" = unnamed)
};

}  // namespace hyp::cluster
