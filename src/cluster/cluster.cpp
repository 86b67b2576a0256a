#include "cluster/cluster.hpp"

#include <algorithm>
#include <utility>

#include "cluster/ha_hooks.hpp"
#include "cluster/race_hooks.hpp"
#include "common/assert.hpp"
#include "common/log.hpp"

namespace hyp::cluster {

namespace {

// Buffers are move-only (pooled backings); the reliable transport retains the
// payload for retransmission and ships copies onto the wire.
Buffer clone_buffer(const Buffer& b) {
  Buffer out(b.size());
  out.put_bytes(b.data(), b.size());
  return out;
}

}  // namespace

const char* rpc_status_name(RpcStatus s) {
  switch (s) {
    case RpcStatus::kOk: return "ok";
    case RpcStatus::kBudgetExhausted: return "budget_exhausted";
    case RpcStatus::kTimeout: return "timeout";
    case RpcStatus::kNoQuorum: return "no_quorum";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Node

Node::Node(Cluster* cluster, NodeId id)
    : cluster_(cluster), id_(id), service_(&cluster->engine()), app_cpu_(&cluster->engine()) {}

void Node::register_service(ServiceId service, Handler handler) {
  HYP_CHECK_MSG(service >= 0, "service ids must be non-negative");
  const auto idx = static_cast<std::size_t>(service);
  if (idx >= handlers_.size()) handlers_.resize(idx + 1);
  HYP_CHECK_MSG(!handlers_[idx], "service already registered on this node");
  handlers_[idx] = std::move(handler);
}

void Node::register_service(ServiceId service, const char* name, Handler handler) {
  register_service(service, std::move(handler));
  cluster_->record_service_name(service, name);
}

Time Node::extend_service(TimeDelta duration) {
  service_.reserve(duration);
  return service_.free_at();
}

// ---------------------------------------------------------------------------
// Cluster

Cluster::Cluster(ClusterParams params, int nodes) : params_(std::move(params)) {
  const int n = nodes > 0 ? nodes : params_.default_nodes;
  HYP_CHECK_MSG(n > 0, "cluster must have at least one node");
  nodes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<Node>(this, i));
  }
  lossy_ = params_.fault.lossy();
  // Big clusters shard the event queue per node (no events exist yet — the
  // engine was just constructed, so configure_shards' precondition holds).
  sharded_ = n >= kShardNodeThreshold;
  if (sharded_) engine_.configure_shards(static_cast<std::uint32_t>(n));
}

// ---------------------------------------------------------------------------
// Sparse pair-state store (reliable transport; see the header comment).

namespace {
std::size_t pair_hash(std::uint64_t k) {
  // splitmix64 finalizer: full-avalanche mix of the packed (from,to) key.
  k ^= k >> 30;
  k *= 0xbf58476d1ce4e5b9ull;
  k ^= k >> 27;
  k *= 0x94d049bb133111ebull;
  k ^= k >> 31;
  return static_cast<std::size_t>(k);
}
}  // namespace

Cluster::PairState& Cluster::pair(NodeId from, NodeId to) {
  if (pair_table_.empty()) pair_rehash(16);
  const std::uint64_t key = pair_packed(from, to);
  const std::size_t mask = pair_table_.size() - 1;
  std::size_t i = pair_hash(key) & mask;
  while (true) {
    const std::uint32_t slot = pair_table_[i];
    if (slot == 0) break;
    PairState& ps = *pair_slots_[slot - 1];
    if (ps.from == from && ps.to == to) return ps;
    i = (i + 1) & mask;
  }
  auto created = std::make_unique<PairState>();
  created->from = from;
  created->to = to;
  pair_slots_.push_back(std::move(created));
  pair_table_[i] = static_cast<std::uint32_t>(pair_slots_.size());
  if (pair_slots_.size() * 10 >= pair_table_.size() * 7) {
    pair_rehash(pair_table_.size() * 2);  // keep the load factor under 0.7
  }
  return *pair_slots_.back();
}

Cluster::PairState* Cluster::pair_find(NodeId from, NodeId to) {
  if (pair_table_.empty()) return nullptr;
  const std::uint64_t key = pair_packed(from, to);
  const std::size_t mask = pair_table_.size() - 1;
  std::size_t i = pair_hash(key) & mask;
  while (true) {
    const std::uint32_t slot = pair_table_[i];
    if (slot == 0) return nullptr;
    PairState& ps = *pair_slots_[slot - 1];
    if (ps.from == from && ps.to == to) return &ps;
    i = (i + 1) & mask;
  }
}

void Cluster::pair_rehash(std::size_t new_size) {
  pair_table_.assign(new_size, 0);
  const std::size_t mask = new_size - 1;
  for (std::size_t s = 0; s < pair_slots_.size(); ++s) {
    std::size_t i = pair_hash(pair_packed(pair_slots_[s]->from, pair_slots_[s]->to)) & mask;
    while (pair_table_[i] != 0) i = (i + 1) & mask;
    pair_table_[i] = static_cast<std::uint32_t>(s + 1);
  }
}

void Cluster::record_service_name(ServiceId service, const char* name) {
  const auto idx = static_cast<std::size_t>(service);
  if (idx >= service_names_.size()) service_names_.resize(idx + 1);
  if (service_names_[idx].empty()) service_names_[idx] = name;
}

std::string Cluster::service_label(ServiceId service) const {
  const auto idx = static_cast<std::size_t>(service);
  if (service >= 0 && idx < service_names_.size() && !service_names_[idx].empty()) {
    return service_names_[idx];
  }
  return "service " + std::to_string(service);
}

Node& Cluster::node(NodeId id) {
  HYP_CHECK_MSG(id >= 0 && id < node_count(), "node id out of range");
  return *nodes_[static_cast<std::size_t>(id)];
}

void Cluster::send(NodeId from, NodeId to, ServiceId service, Buffer payload) {
  deliver(0, from, to, service, std::move(payload), /*reply_token=*/0);
}

Buffer Cluster::call(NodeId from, NodeId to, ServiceId service, Buffer payload) {
  RpcResult result = call_result(from, to, service, std::move(payload));
  if (!result.ok()) HYP_PANIC(result.error.message);
  return std::move(result.payload);
}

RpcResult Cluster::call_result(NodeId from, NodeId to, ServiceId service, Buffer payload) {
  sim::Engine* eng = &engine_;
  HYP_CHECK_MSG(eng->in_fiber(), "Cluster::call must run on a fiber");

  PendingCall pc;
  pc.waiter = eng->current_fiber();
  pc.from = from;
  pc.to = to;
  pc.service = service;
  pc.started = engine_.now();
  std::uint32_t idx;
  if (!call_free_.empty()) {
    idx = call_free_.back();
    call_free_.pop_back();
  } else {
    idx = static_cast<std::uint32_t>(call_slots_.size());
    call_slots_.emplace_back();
  }
  CallSlot& slot = call_slots_[idx];
  slot.call = &pc;
  // Uses start at 1, so no token is 0 ("one-way").
  const std::uint64_t token = (std::uint64_t{++slot.uses} << 32) | idx;
  deliver(0, from, to, service, std::move(payload), token);

  while (!pc.done) eng->park();
  call_slots_[idx].call = nullptr;
  call_free_.push_back(idx);

  RpcResult out;
  out.status = pc.error.status;
  if (pc.error.ok()) {
    out.payload = std::move(pc.payload);
  } else {
    out.error = std::move(pc.error);
  }
  return out;
}

void Cluster::reply(const Incoming& incoming, Buffer payload, TimeDelta depart_delay) {
  HYP_CHECK_MSG(incoming.reply_token != 0, "reply() to a one-way message");
  deliver_reply(depart_delay, incoming.to, incoming.from, incoming.reply_token,
                std::move(payload));
}

void Cluster::reply_to(NodeId replier, NodeId requester, std::uint64_t reply_token,
                       Buffer payload, TimeDelta depart_delay) {
  HYP_CHECK_MSG(reply_token != 0, "reply_to() needs a call token");
  deliver_reply(depart_delay, replier, requester, reply_token, std::move(payload));
}

void Cluster::deliver(TimeDelta depart_delay, NodeId from, NodeId to, ServiceId service,
                      Buffer payload, std::uint64_t reply_token) {
  Node& src = node(from);
  Node& dst = node(to);
  // Loopback is normally a protocol bug (callers short-circuit the local
  // case), but after an HA promotion or a heat-driven home migration a node
  // can be its own home and a retried op must still flow through the
  // handler-side dedup — so it is allowed, through the transport, when
  // either machinery is active.
  HYP_CHECK_MSG(from != to || ha_ != nullptr || loopback_ok_,
                "loopback RPC: callers handle the local case directly");

  if (race_ != nullptr) [[unlikely]] race_->on_message(from, to, service, payload.size());

  if (lossy_) {
    tx_enqueue(depart_delay, from, to, service, reply_token, /*is_reply=*/false,
               std::move(payload));
    return;
  }

  src.stats().add(Counter::kMessages);
  src.stats().add(Counter::kMessageBytes, payload.size());

  const std::uint64_t msg_seq = message_seq_++;
  const Time depart = engine_.now() + depart_delay + params_.net.send_overhead;
  const Time arrival =
      depart + params_.net.wire_time(payload.size()) + params_.fault.extra_delay(msg_seq);

  // Arrival and execution belong to the destination node: route them to its
  // queue shard (the nested exec post inherits it via active_shard_).
  engine_.post_on(node_shard(to), arrival, [this, &dst, from, service, reply_token,
                                            moved = std::move(payload)]() mutable {
    dispatch_request(dst, from, service, reply_token, std::move(moved));
  });
}

void Cluster::dispatch_request(Node& dst, NodeId from, ServiceId service, std::uint64_t token,
                               Buffer payload) {
  const Time begin = dst.service_queue().reserve(params_.net.recv_overhead);
  const Time exec_at = begin + params_.net.recv_overhead;
  engine_.post(exec_at, [&dst, from, service, token, moved = std::move(payload)]() mutable {
    const auto idx = static_cast<std::size_t>(service);
    HYP_CHECK_MSG(idx < dst.handlers_.size() && dst.handlers_[idx],
                  "no handler for service " + std::to_string(service) + " on node " +
                      std::to_string(dst.id()));
    Incoming incoming{from, dst.id(), BufferReader(moved), token};
    dst.handlers_[idx](incoming);
  });
}

void Cluster::deliver_reply(TimeDelta depart_delay, NodeId from, NodeId to, std::uint64_t token,
                            Buffer payload) {
  if (race_ != nullptr) [[unlikely]] race_->on_message(from, to, /*service=*/-1, payload.size());
  if (lossy_) {
    tx_enqueue(depart_delay, from, to, /*service=*/-1, token, /*is_reply=*/true,
               std::move(payload));
    return;
  }

  Node& src = node(from);
  src.stats().add(Counter::kMessages);
  src.stats().add(Counter::kMessageBytes, payload.size());

  const std::uint64_t msg_seq = message_seq_++;
  const Time depart = engine_.now() + depart_delay + params_.net.send_overhead;
  // Replies bypass the receiver's service queue: the destination fiber is
  // blocked waiting, so only dispatch overhead applies.
  const Time wakeup = depart + params_.net.wire_time(payload.size()) +
                      params_.net.recv_overhead + params_.fault.extra_delay(msg_seq);

  engine_.post_on(node_shard(to), wakeup, [this, token, moved = std::move(payload)]() mutable {
    complete_call(token, std::move(moved));
  });
}

// ---------------------------------------------------------------------------
// Reliable transport (docs/FAULTS.md). Only reached when lossy_.

void Cluster::tx_enqueue(TimeDelta depart_delay, NodeId from, NodeId to, ServiceId service,
                         std::uint64_t token, bool is_reply, Buffer payload) {
  HYP_CHECK_MSG(from != to || ha_ != nullptr || loopback_ok_,
                "loopback RPC: callers handle the local case directly");
  PairState& ps = pair(from, to);
  tx_reap(ps);
  const std::uint64_t seq = ps.next_seq++;
  TxPacket p;
  p.from = from;
  p.to = to;
  p.service = service;
  p.token = token;
  p.is_reply = is_reply;
  p.payload = std::move(payload);
  p.seq = seq;
  p.first_sent = engine_.now() + depart_delay;
  p.rto = params_.fault.rto_initial;
  if (ps.outstanding.capacity() == 0 && !tx_spare_.empty()) {
    ps.outstanding = std::move(tx_spare_.back());
    tx_spare_.pop_back();
  }
  ps.outstanding.push_back(std::move(p));
  tx_transmit(ps, seq, depart_delay);
}

std::size_t Cluster::transport_pairs_holding_packets() const {
  return static_cast<std::size_t>(
      std::count_if(pair_slots_.begin(), pair_slots_.end(),
                    [](const auto& ps) { return ps->outstanding.capacity() != 0; }));
}

Cluster::TxPacket* Cluster::tx_slot(PairState& ps, std::uint64_t seq) {
  const auto it = std::lower_bound(ps.outstanding.begin(), ps.outstanding.end(), seq,
                                   [](const TxPacket& p, std::uint64_t s) { return p.seq < s; });
  return it != ps.outstanding.end() && it->seq == seq ? &*it : nullptr;
}

Cluster::TxPacket* Cluster::tx_find(PairState& ps, std::uint64_t seq) {
  TxPacket* p = tx_slot(ps, seq);
  return p != nullptr && !tx_acked(*p) ? p : nullptr;
}

Cluster::TxPacket Cluster::tx_take(PairState& ps, TxPacket* p) {
  TxPacket packet = std::move(*p);
  ps.outstanding.erase(ps.outstanding.begin() + (p - ps.outstanding.data()));
  if (ps.outstanding.empty()) tx_spare_.push_back(std::exchange(ps.outstanding, {}));
  return packet;
}

void Cluster::tx_reap(const PairState& enqueuing) {
  // Acks land out of order (jitter), so one still in flight at the front
  // holds the rest back until a later enqueue.
  std::size_t i = tx_acked_head_;
  for (; i < tx_acked_.size(); ++i) {
    PairState& ps = *tx_acked_[i].ps;
    TxPacket* p = tx_slot(ps, tx_acked_[i].seq);
    if (p == nullptr) continue;  // given up before its ack landed
    if (!tx_acked(*p)) break;
    ps.outstanding.erase(ps.outstanding.begin() + (p - ps.outstanding.data()));
    // The enqueuing pair keeps its vector for the packet it is about to add.
    if (ps.outstanding.empty() && &ps != &enqueuing) {
      tx_spare_.push_back(std::exchange(ps.outstanding, {}));
    }
  }
  if (i == tx_acked_.size()) {
    tx_acked_.clear();
    i = 0;
  } else if (2 * i >= tx_acked_.size()) {
    tx_acked_.erase(tx_acked_.begin(), tx_acked_.begin() + static_cast<std::ptrdiff_t>(i));
    i = 0;
  }
  tx_acked_head_ = i;
}

void Cluster::tx_transmit(PairState& ps, std::uint64_t seq, TimeDelta depart_delay) {
  TxPacket* found = tx_find(ps, seq);
  if (found == nullptr) return;  // acked or cancelled meanwhile
  TxPacket& p = *found;
  const NodeId from = ps.from;
  const NodeId to = ps.to;

  // A crashed node transmits nothing: its NIC holds every outbound packet
  // until the restart instant (fibers, stacks and queued sends all survive a
  // crash under the thread-checkpoint model — only home authority is lost).
  if (ha_ != nullptr) {
    const Time release = params_.fault.crash_release(from, engine_.now() + depart_delay);
    if (release != 0) {
      engine_.post_on(node_shard(from), release,
                      [this, &ps, seq]() { tx_transmit(ps, seq, 0); });
      return;
    }
  }

  Node& src = node(from);
  src.stats().add(Counter::kMessages);
  src.stats().add(Counter::kMessageBytes, p.payload.size());

  const FaultProfile& f = params_.fault;
  const std::uint64_t key = FaultProfile::packet_key(from, to, seq, p.retransmits);
  const Time depart = engine_.now() + depart_delay + params_.net.send_overhead;

  // Every attempt has a retransmit timer at depart + rto, and it takes its
  // event seq here, at transmission, whether or not it is ever queued, so
  // skipping it moves no other event. The sender cannot observe
  // drops, but the simulator can: the timer is queued now only if this
  // attempt's original copy is lost or lands at or after the deadline.
  // Otherwise that copy's arrival queues it, unless the ack it sends lands
  // first (tx_send_ack) and the timer could only find the packet gone.
  p.timer_at = depart + p.rto;
  p.timer_seq = engine_.reserve_seq();

  // Corruption is detected by the receiver checksum and counts as a drop.
  // Asymmetric linkdrop rates stack on the symmetric rate with their own
  // decision stream.
  if (f.roll(f.corrupt_ppm, key, FaultProfile::kSaltCorrupt) ||
      f.roll(f.drop_ppm, key, FaultProfile::kSaltDrop) ||
      f.roll(f.linkdrop_ppm(from, to), key, FaultProfile::kSaltLinkDrop)) {
    src.stats().add(Counter::kNetDrops);
    trace_event(from, TraceKind::kNetDrop, to, static_cast<std::int64_t>(seq));
    tx_post_timer(ps, p);
    return;
  }

  const Time base_arrival = depart + params_.net.wire_time(p.payload.size()) + f.extra_delay(key);
  // An open partition window cuts the wire itself: judged at the departure
  // instant (a packet cannot outrun the cut), deterministic by construction.
  if (f.severed(from, to, depart)) {
    src.stats().add(Counter::kNetDrops);
    src.stats().add(Counter::kHaPartitionDrops);
    trace_event(from, TraceKind::kNetDrop, to, static_cast<std::int64_t>(seq));
    tx_post_timer(ps, p);
    return;
  }
  const Time arrival = f.apply_windows(to, base_arrival);
  if (arrival == FaultProfile::kDropped) {
    src.stats().add(Counter::kNetDrops);
    trace_event(from, TraceKind::kNetDrop, to, static_cast<std::int64_t>(seq));
    tx_post_timer(ps, p);
  } else {
    const bool carries_timer = arrival < p.timer_at;
    if (!carries_timer) tx_post_timer(ps, p);
    tx_schedule_arrival(ps, p, arrival, carries_timer);
  }

  if (f.roll(f.dup_ppm, key, FaultProfile::kSaltDup)) {
    src.stats().add(Counter::kNetDupes);
    // The duplicate trails the original by a hash-derived gap so the receiver
    // sees genuinely reordered copies, then runs the same window gauntlet.
    const Time window = f.reorder_max > 0 ? f.reorder_max : 10 * kMicrosecond;
    const Time gap = 1 + static_cast<Time>(f.hash(key, FaultProfile::kSaltDupDelay) %
                                           static_cast<std::uint64_t>(window));
    const Time dup_arrival = f.apply_windows(to, base_arrival + gap);
    if (dup_arrival != FaultProfile::kDropped) {
      tx_schedule_arrival(ps, p, dup_arrival, /*carries_timer=*/false);
    }
  }
}

void Cluster::tx_post_timer(PairState& ps, const TxPacket& p) {
  engine_.post_reserved(node_shard(ps.from), p.timer_at, p.timer_seq,
                        [this, &ps, seq = p.seq]() { tx_on_timer(ps, seq); });
}

void Cluster::tx_schedule_arrival(PairState& ps, const TxPacket& p, Time arrival,
                                  bool carries_timer) {
  // The packet may be acked (erased) before this event fires; ship a copy.
  Buffer copy = clone_buffer(p.payload);
  engine_.post_on(node_shard(ps.to), arrival,
                  [this, &ps, service = p.service, token = p.token, is_reply = p.is_reply,
                   seq = p.seq, carries_timer, moved = std::move(copy)]() mutable {
                    tx_on_arrival(ps, service, token, is_reply, std::move(moved), seq,
                                  carries_timer);
                  });
}

void Cluster::tx_on_arrival(PairState& ps, ServiceId service, std::uint64_t token,
                            bool is_reply, Buffer payload, std::uint64_t seq,
                            bool carries_timer) {
  const NodeId from = ps.from;
  const NodeId to = ps.to;
  Node& dst = node(to);

  // Receiver-side dedup: everything below the watermark was delivered;
  // seqs above it that arrived early are bits in the window.
  const bool duplicate = seq < ps.seen_watermark || ps.seen_above.contains(seq);
  if (duplicate) {
    dst.stats().add(Counter::kDupSuppressed);
    trace_event(to, TraceKind::kDupSuppressed, from, static_cast<std::int64_t>(seq));
    // Re-ack: the original ack may be what got lost.
    tx_send_ack(ps, seq, carries_timer);
    return;
  }
  if (seq == ps.seen_watermark) {
    // Every window member lies above the watermark, so the watermark climbs
    // exactly while the window holds its next seq.
    ++ps.seen_watermark;
    while (ps.seen_above.erase(ps.seen_watermark)) ++ps.seen_watermark;
  } else {
    ps.seen_above.insert(seq);
  }
  tx_send_ack(ps, seq, carries_timer);

  if (is_reply) {
    // Replies bypass the service queue (the caller fiber is parked); only
    // dispatch overhead applies — mirrors the lossless path's shape.
    engine_.post(engine_.now() + params_.net.recv_overhead,
                 [this, token, moved = std::move(payload)]() mutable {
                   complete_call(token, std::move(moved));
                 });
    return;
  }

  dispatch_request(dst, from, service, token, std::move(payload));
}

void Cluster::tx_send_ack(PairState& ps, std::uint64_t seq, bool carries_timer) {
  // The ack travels back over the pair: from its data receiver (`from`
  // here) to its data sender (`to`). Acks are fire-and-forget control
  // packets: they run the same fault gauntlet but are never themselves
  // acked — a lost ack is recovered by the data sender's retransmit.
  const NodeId from = ps.to;
  const NodeId to = ps.from;
  Node& src = node(from);
  src.stats().add(Counter::kAcksSent);

  const FaultProfile& f = params_.fault;
  // Keyed off the global message sequence (attempt field tagged) so every
  // ack transmission rolls independently of data packets.
  const std::uint64_t key =
      FaultProfile::packet_key(from, to, message_seq_++, /*attempt=*/0x80000000u);
  Time arrival = FaultProfile::kDropped;
  if (f.roll(f.corrupt_ppm, key, FaultProfile::kSaltCorrupt) ||
      f.roll(f.drop_ppm, key, FaultProfile::kSaltDrop) ||
      f.roll(f.linkdrop_ppm(from, to), key, FaultProfile::kSaltLinkDrop)) {
    src.stats().add(Counter::kNetDrops);
    trace_event(from, TraceKind::kNetDrop, to, static_cast<std::int64_t>(seq));
  } else if (f.severed(from, to, engine_.now())) {
    src.stats().add(Counter::kNetDrops);
    src.stats().add(Counter::kHaPartitionDrops);
    trace_event(from, TraceKind::kNetDrop, to, static_cast<std::int64_t>(seq));
  } else {
    arrival = f.apply_windows(to, engine_.now() + params_.net.send_overhead +
                                      params_.net.wire_time(0) + f.extra_delay(key));
    if (arrival == FaultProfile::kDropped) {
      src.stats().add(Counter::kNetDrops);
      trace_event(from, TraceKind::kNetDrop, to, static_cast<std::int64_t>(seq));
    }
  }

  TxPacket* p = tx_find(ps, seq);
  // The timer's seq was reserved before this ack's, so at equal instants
  // the timer fires first: the ack lands first only strictly before it.
  const bool lands_first =
      arrival != FaultProfile::kDropped && p != nullptr && arrival < p->timer_at;
  if (arrival != FaultProfile::kDropped) {
    const std::uint64_t ack_seq = engine_.reserve_seq();
    if (lands_first && p->retransmits == 0) {
      // The ack event would only erase the packet (no retry latency to
      // record, no timer left to stop), so it is applied now: the packet
      // counts as acked from the ack's landing point on, and its payload,
      // needed only for a retransmit that cannot happen, goes at once.
      if (p->ack_at == kNoAck) {
        p->payload = Buffer();
        tx_acked_.push_back({&ps, seq});
      }
      if (arrival < p->ack_at) {  // a duplicate's ack may land earlier
        p->ack_at = arrival;
        p->ack_seq = ack_seq;
      }
    } else {
      // Lands on the data sender's shard.
      engine_.post_reserved(node_shard(to), arrival, ack_seq,
                            [this, &ps, seq]() { tx_on_ack(ps, seq); });
    }
  }
  // The deferred timer: needed unless the packet is gone or an ack lands
  // before it (an in-place ack always does).
  if (carries_timer && p != nullptr && !lands_first && p->ack_at == kNoAck) {
    tx_post_timer(ps, *p);
  }
}

void Cluster::tx_on_ack(PairState& ps, std::uint64_t seq) {
  TxPacket* p = tx_find(ps, seq);
  if (p == nullptr) return;  // stale or duplicate ack
  if (p->retransmits > 0) {
    const Time waited = engine_.now() - p->first_sent;
    node(ps.from).stats().record(Hist::kRetryLatency, static_cast<std::uint64_t>(waited));
  }
  tx_take(ps, p);
}

void Cluster::tx_on_timer(PairState& ps, std::uint64_t seq) {
  TxPacket* found = tx_find(ps, seq);
  if (found == nullptr) return;  // acked or cancelled: timer is moot
  TxPacket& p = *found;
  const NodeId from = ps.from;
  const NodeId to = ps.to;
  // Fast give-up: once the failure detector confirmed the destination dead —
  // or an open partition window severs the pair — there is no point burning
  // the rest of the retry budget against it. The severed case surfaces the
  // typed kNoQuorum status so callers park until the heal instant instead of
  // treating the peer as gone.
  const bool cut = ha_ != nullptr && params_.fault.severed(from, to, engine_.now());
  if (cut || p.retransmits >= kMaxRetransmits ||
      (ha_ != nullptr && ha_->confirmed_dead(to))) {
    tx_give_up(tx_take(ps, &p), /*no_quorum=*/cut);
    return;
  }
  ++p.retransmits;
  p.rto *= kRtoBackoff;
  node(from).stats().add(Counter::kRetransmits);
  trace_event(from, TraceKind::kRetransmit, to, static_cast<std::int64_t>(seq));
  tx_transmit(ps, seq, /*depart_delay=*/0);
}

void Cluster::tx_give_up(TxPacket packet, bool no_quorum) {
  if (!packet.is_reply) {
    if (packet.token != 0) {
      // Request packet of a blocking call: surface a typed failure to the
      // parked caller instead of letting the run end in a generic deadlock.
      PendingCall* pc = find_call(packet.token);
      if (pc != nullptr && !pc->done) {
        fail_call(*pc, no_quorum ? RpcStatus::kNoQuorum : RpcStatus::kBudgetExhausted,
                  packet.retransmits);
      }
      return;
    }
    // One-way send to a node the detector has confirmed dead — or sitting
    // across an open partition window: the HA layer has (or will have)
    // failed over its state, so the message is moot — discard it instead of
    // declaring the cluster broken.
    if (ha_ != nullptr && (no_quorum || ha_->confirmed_dead(packet.to))) {
      node(packet.from).stats().add(Counter::kHaDeadSendsDropped);
      trace_event(packet.from, TraceKind::kRpcTimeout, packet.to, packet.service);
      return;
    }
    // One-way send: no caller to inform, and protocol state on the receiver
    // now diverges irrecoverably — abort naming the coordinates.
    HYP_PANIC("one-way rpc from node " + std::to_string(packet.from) + " to node " +
              std::to_string(packet.to) + " service " + service_label(packet.service) +
              ": retry budget exhausted after " + std::to_string(packet.retransmits) +
              " retransmits (node unreachable?)");
  }

  // Reply packet: the replier cannot reach the caller. Fail the caller's
  // pending call (the simulator sees both ends) so the fiber wakes with a
  // typed error instead of parking forever.
  PendingCall* pc = find_call(packet.token);
  if (pc != nullptr && !pc->done) {
    fail_call(*pc, no_quorum ? RpcStatus::kNoQuorum : RpcStatus::kTimeout, packet.retransmits);
    pc->error.message +=
        " (reply from node " + std::to_string(packet.from) + " was undeliverable)";
  } else {
    // Caller already gone (its request failed first); account the give-up here.
    node(packet.from).stats().add(Counter::kRpcTimeouts);
    trace_event(packet.from, TraceKind::kRpcTimeout, packet.to, packet.service);
  }
}

void Cluster::complete_call(std::uint64_t token, Buffer payload) {
  PendingCall* pc = find_call(token);
  // Only a lossy call can fail, so only a lossy reply can outlive its call.
  const bool live = pc != nullptr && !pc->done;
  HYP_CHECK_MSG(live || lossy_, "reply for unknown or completed call");
  if (!live) return;  // stale reply: the call failed
  pc->payload = std::move(payload);
  pc->done = true;
  engine_.unpark(pc->waiter);
}

void Cluster::fail_call(PendingCall& call, RpcStatus status, std::uint32_t retransmits) {
  call.error =
      make_error(status, call.from, call.to, call.service, retransmits,
                 engine_.now() - call.started);
  call.done = true;
  node(call.from).stats().add(Counter::kRpcTimeouts);
  trace_event(call.from, TraceKind::kRpcTimeout, call.to, call.service);
  engine_.unpark(call.waiter);
}

RpcError Cluster::make_error(RpcStatus status, NodeId from, NodeId to, ServiceId service,
                             std::uint32_t retransmits, Time waited) const {
  RpcError e;
  e.status = status;
  e.from = from;
  e.to = to;
  e.service = service;
  e.retransmits = retransmits;
  e.waited = waited;
  std::string reason;
  switch (status) {
    case RpcStatus::kBudgetExhausted:
      reason = "retry budget exhausted after " + std::to_string(retransmits) + " retransmits";
      break;
    case RpcStatus::kTimeout:
      reason = "timed out after " + std::to_string(to_micros(waited)) + " us";
      break;
    case RpcStatus::kNoQuorum:
      reason = "peer unreachable across an open partition window";
      break;
    case RpcStatus::kOk:
      reason = "ok";
      break;
  }
  e.message = "rpc from node " + std::to_string(from) + " to node " + std::to_string(to) +
              " service " + service_label(service) + ": " + reason;
  return e;
}

void Cluster::ha_fail_traffic_to(NodeId dead) {
  HYP_CHECK_MSG(ha_ != nullptr && ha_->confirmed_dead(dead),
                "ha_fail_traffic_to wants a confirmed-dead node");
  // Collect peers with in-flight traffic involving the dead node from the
  // sparse store's occupancy index — O(communicating pairs), not O(n) — then
  // process them in ascending node order, which is exactly the order the old
  // 0..n-1 full scan visited them in (pairs with empty outstanding were
  // no-ops there), so the recovery goldens are byte-identical.
  std::vector<NodeId> peers;
  for (const auto& ps : pair_slots_) {
    if (ps->outstanding.empty()) continue;
    if (ps->to == dead && ps->from != dead) {
      peers.push_back(ps->from);
    } else if (ps->from == dead && ps->to != dead) {
      peers.push_back(ps->to);
    }
  }
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  for (NodeId other : peers) {
    // Everything still outstanding *to* the dead node gives up now: blocking
    // calls wake with kBudgetExhausted and re-route; one-way sends are
    // discarded (the confirmed_dead branch of tx_give_up). A packet whose
    // in-place ack has landed is acked, not outstanding: tx_reap drops it.
    if (PairState* to_dead = pair_find(other, dead)) {
      for (std::size_t i = 0; i < to_dead->outstanding.size();) {
        if (tx_acked(to_dead->outstanding[i])) {
          ++i;
        } else {
          tx_give_up(tx_take(*to_dead, &to_dead->outstanding[i]));
        }
      }
    }
    // Replies the dead node still owed: fail the parked callers (kTimeout)
    // so they re-route too. Its outstanding *requests* are left alone — the
    // node itself is merely frozen and its sends resume after the restart.
    if (PairState* from_dead = pair_find(dead, other)) {
      for (std::size_t i = 0; i < from_dead->outstanding.size();) {
        if (from_dead->outstanding[i].is_reply && !tx_acked(from_dead->outstanding[i])) {
          tx_give_up(tx_take(*from_dead, &from_dead->outstanding[i]));
        } else {
          ++i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------

sim::Fiber* Cluster::spawn_thread(NodeId on, std::string name, UniqueFunction<void()> body) {
  Node& target = node(on);
  target.stats().add(Counter::kRemoteThreadSpawns);
  // Pin the fiber to its node's queue shard: all its sleeps/yields/wakeups
  // stay in that node's heap.
  return engine_.spawn_on(node_shard(on), std::move(name), std::move(body));
}

void Cluster::run() {
  auto stuck = engine_.run();
  if (!stuck.empty()) {
    std::string names;
    for (const auto& n : stuck) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    // Name any still-pending RPCs: "which node/service is stuck" is the
    // question a deadlock under fault injection actually poses.
    std::string detail;
    for (const CallSlot& slot : call_slots_) {
      const PendingCall* pc = slot.call;
      if (pc == nullptr || pc->done) continue;
      detail += "\n  pending rpc: node " + std::to_string(pc->from) + " -> node " +
                std::to_string(pc->to) + " service " + service_label(pc->service) +
                " (waiting " + std::to_string(to_micros(engine_.now() - pc->started)) + " us)";
    }
    HYP_PANIC("cluster simulation deadlocked; blocked fibers: " + names + detail);
  }
}

Stats Cluster::total_stats() const {
  Stats total;
  for (const auto& n : nodes_) total.merge(n->stats_);
  return total;
}

}  // namespace hyp::cluster
