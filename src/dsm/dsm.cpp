#include "dsm/dsm.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace hyp::dsm {

const char* protocol_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kJavaIc: return "java_ic";
    case ProtocolKind::kJavaPf: return "java_pf";
    case ProtocolKind::kHybrid: return "hybrid";
  }
  return "?";
}

ProtocolKind protocol_by_name(const std::string& name) {
  if (name == "java_ic") return ProtocolKind::kJavaIc;
  if (name == "java_pf") return ProtocolKind::kJavaPf;
  if (name == "hybrid") return ProtocolKind::kHybrid;
  HYP_PANIC("unknown protocol: " + name + " (expected java_ic, java_pf or hybrid)");
}

DsmSystem::DsmSystem(cluster::Cluster* cluster, std::size_t region_bytes, ProtocolKind kind)
    : cluster_(cluster),
      layout_(region_bytes, cluster->params().page_bytes, cluster->node_count()),
      kind_(kind) {
  const int n = cluster->node_count();
  nodes_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<NodeDsm>(&layout_, i));
    cluster_->node(i).register_service(
        svc::kPageRequest, "page_request",
        [this, i](cluster::Incoming& in) { handle_page_request(in, i); });
    cluster_->node(i).register_service(
        svc::kUpdateFields, "update_fields",
        [this, i](cluster::Incoming& in) { handle_update(in, i, /*runs=*/false); });
    cluster_->node(i).register_service(
        svc::kUpdateRuns, "update_runs",
        [this, i](cluster::Incoming& in) { handle_update(in, i, /*runs=*/true); });
    cluster_->node(i).register_service(
        svc::kQuorumRead, "quorum_read",
        [this, i](cluster::Incoming& in) { handle_quorum_read(in, i); });
  }
  if (kind_ == ProtocolKind::kHybrid) {
    // Mode break-even: a miss in pf mode costs (fault + mprotect) more than
    // an ic miss, an ic hit costs one check more than a pf hit; pf therefore
    // wins while the window shows at least R accesses per miss. Integer
    // division of virtual-time constants — deterministic by construction.
    const auto& cpu = cluster->params().cpu;
    const Time check = cpu.check_cost();
    hybrid_r_ = (cpu.page_fault_cost + cpu.mprotect_page_cost) / (check == 0 ? 1 : check);
    if (hybrid_r_ == 0) hybrid_r_ = 1;
    home_override_.reset(layout_.total_pages());
    mig_.reset(layout_.total_pages());
    wheat_.init(layout_.total_pages(), n);
  }
}

Gva DsmSystem::alloc(NodeId node, std::size_t bytes, std::size_t align) {
  const Gva base = node_dsm(node).alloc(bytes, align);
  if (race_ != nullptr) [[unlikely]] race_->note_alloc(node, base, bytes);
  return base;
}

std::unique_ptr<ThreadCtx> DsmSystem::make_thread(NodeId node) {
  auto t = std::make_unique<ThreadCtx>(&cluster_->params().cpu);
  t->uid = next_thread_uid_++;
  t->dsm = this;
  t->node = node;
  t->nd = &node_dsm(node);
  t->base = t->nd->arena();
  t->presence = t->nd->presence_data();
  t->page_shift = layout_.page_shift();
  t->check_cost = cluster_->params().cpu.check_cost();
  if (kind_ == ProtocolKind::kHybrid) {
    t->awin = access_window(node);
    t->awin_shift = wheat_.byte_shift();
    t->ic_giveup = hybrid_r_;
  }
  t->stats = &cluster_->node(node).stats();
  if (race_ != nullptr) {
    t->race = race_;
    t->race_tid = t->uid;
    race_->register_thread(t->uid, node);
  }
  // One processor per node: compute by this node's threads serializes.
  t->clock.bind_cpu(&cluster_->node(node).app_cpu());
  threads_.push_back(t.get());
  return t;
}

ThreadCtx::~ThreadCtx() {
  if (dsm != nullptr) dsm->unregister_thread(this);
}

void DsmSystem::unregister_thread(ThreadCtx* t) {
  for (auto it = threads_.begin(); it != threads_.end(); ++it) {
    if (*it == t) {
      threads_.erase(it);
      return;
    }
  }
}

void DsmSystem::replay_logged_writes(NodeId node, Gva begin, Gva end) {
  NodeDsm& nd = node_dsm(node);
  for (ThreadCtx* t : threads_) {
    if (t->node != node) continue;
    // Program order within a thread gives last-writer-wins; cross-thread
    // conflicts on unflushed stores are data races (undefined under the JMM).
    for (const WriteLogEntry& e : t->wlog.entries()) {
      if (e.addr >= begin && e.addr < end) {
        std::memcpy(nd.arena() + e.addr, &e.value, e.size);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The one route to a home (docs/RECOVERY.md §Reaching a home)

Buffer DsmSystem::call_home(ThreadCtx& t, NodeId& target, PageId route_page,
                            cluster::ServiceId service, std::size_t ok_body_bytes,
                            BuildPayload build, const char* what, bool nack_to_caller) {
  const std::size_t epoch_bytes = fencing_ ? sizeof(std::uint64_t) : 0;
  sim::Engine& eng = cluster_->engine();
  const Time started = eng.now();
  int attempts = 0;  // at the current target
  bool rerouted = false;
  // The guard bounds pathological NACK/re-resolve loops; a real failover or
  // migration converges in a handful of iterations.
  for (int guard = 0; guard < kMaxReroutes; ++guard) {
    if (ha_ != nullptr && effective_home_of_page(route_page) != target) {
      // The home moved (promotion or migration): fresh budget at the new one.
      target = effective_home_of_page(route_page);
      attempts = 0;
      rerouted = true;
      t.stats->add(Counter::kHaReroutes);
    }
    ++attempts;
    // The epoch is taken per attempt: a retry after a local epoch bump must
    // carry the fresh view, or the promoted home would fence the same stale
    // request forever. A lossless call sends build()'s buffer as is.
    cluster::RpcResult r = cluster_->call_result(
        t.node, target, service, build(fencing_ ? ha_->node_epoch(t.node) : 0));
    if (r.ok() && r.payload.size() == ok_body_bytes + epoch_bytes) {
      if (fencing_) {
        // The reply leads with the serving home's epoch view: a reply from a
        // home this side has already fenced off is discarded like a NACK and
        // the call re-resolves (transient — the next attempt either reaches
        // the promoted home or sees the server's caught-up epoch).
        std::uint64_t reply_epoch = 0;
        std::memcpy(&reply_epoch, r.payload.data(), sizeof(reply_epoch));
        if (reply_epoch < ha_->node_epoch(t.node)) {
          t.stats->add(Counter::kHaFencedRejects);
          cluster_->trace_event(t.node, cluster::TraceKind::kHaFencedReject,
                                static_cast<std::int64_t>(reply_epoch), service);
          continue;
        }
      }
      if (rerouted) t.stats->record(Hist::kHaRerouteWait, eng.now() - started);
      if (!fencing_) return std::move(r.payload);
      Buffer body(ok_body_bytes);
      body.put_bytes(r.payload.data() + epoch_bytes, ok_body_bytes);
      return body;
    }
    if (!r.ok()) {
      if (ha_ != nullptr && r.error.status == cluster::RpcStatus::kNoQuorum) {
        // Minority-side degradation: the wire to the home is cut. Park with a
        // fresh budget until the surviving side can have re-homed the page
        // (cut start + confirm + watcher slack — the call then re-resolves)
        // or the heal instant, whichever comes first. Both are deterministic.
        attempts = 0;
        t.stats->add(Counter::kHaNoQuorumHolds);
        const auto& f = cluster_->params().fault;
        const Time at = eng.now();
        const Time heal = f.severed_until(t.node, target, at);
        if (heal > at) {
          Time wake = heal;
          const Time confirm_by = f.severed_since(t.node, target, at) +
                                  cluster::kConfirmAfter + 2 * cluster::kHeartbeatInterval;
          if (confirm_by > at && confirm_by < wake) wake = confirm_by;
          eng.sleep_until(wake);
        }
        continue;
      }
      // A failure against a node the detector has confirmed dead is not
      // counted out: the next re-resolution moves past it.
      if (attempts >= kRpcAttempts && (ha_ == nullptr || !ha_->confirmed_dead(target))) {
        HYP_PANIC(std::string(what) + " abandoned after " + std::to_string(attempts) +
                  " attempts: " + r.error.message);
      }
    } else if (ha_ == nullptr) {
      // Without HA only a heat migration (hybrid) moves a home, and the
      // override table changes synchronously with it, so re-resolving
      // converges in one hop. The new home may be this node itself (the
      // dominant writer); the runtime allows that loopback.
      if (nack_to_caller) return std::move(r.payload);
      t.stats->add(Counter::kHaReroutes);
      target = effective_home_of_page(route_page);
      attempts = 0;
    }
    if (ha_ == nullptr) continue;  // resend at once
    // Under HA a NACK or a failed call against a down-but-unconfirmed target
    // holds until the failure detector has had enough silence to decide.
    const Time at = eng.now();
    Time hold = ha_->retry_hold(target, at);
    if (fencing_ && r.ok()) {
      // The NACK may mean OUR epoch is stale (the NACK cannot say): a node
      // inside an open partition window catches up only at the heal, so
      // retrying before then just burns the guard against more fences.
      // Reaches here when the minority node addresses a bystander home that
      // is outside every partition group but already on the new epoch.
      const Time release = cluster_->params().fault.partition_release(t.node, at);
      if (release > hold) hold = release;
    }
    if (hold > at) eng.sleep_until(hold);
  }
  HYP_PANIC(std::string(what) + ": the route to the home did not converge");
}

namespace {
// A NACK is a reply no success of `ok_body_bytes` (+ epoch) can be.
Buffer nack_reply(std::size_t ok_body_bytes) {
  Buffer nack;
  if (ok_body_bytes == 0) nack.put<std::uint8_t>(1);
  return nack;
}
}  // namespace

bool DsmSystem::fenced(cluster::Incoming& in, NodeId self, cluster::ServiceId service,
                       std::size_t ok_body_bytes) {
  if (!fencing_) return false;
  const auto msg_epoch = in.reader.get<std::uint64_t>();
  if (msg_epoch >= ha_->node_epoch(self)) return false;
  // The request was built under a routing view this node has already
  // superseded (a promotion happened between send and receive): a stale
  // writer must not mutate home state. NACK so the caller re-resolves and
  // resends under a fresh epoch.
  cluster_->node(self).stats().add(Counter::kHaFencedRejects);
  cluster_->trace_event(self, cluster::TraceKind::kHaFencedReject,
                        static_cast<std::int64_t>(msg_epoch), service);
  cluster_->reply(in, nack_reply(ok_body_bytes));
  return true;
}

void DsmSystem::nack_stale_home(cluster::Incoming& in, NodeId self, cluster::ServiceId service,
                                std::size_t ok_body_bytes) {
  cluster_->trace_event(self, cluster::TraceKind::kHaNack, in.from, service);
  cluster_->reply(in, nack_reply(ok_body_bytes));
}

Buffer DsmSystem::stamped_reply(NodeId self) const {
  Buffer head;
  if (fencing_) head.put<std::uint64_t>(ha_->node_epoch(self));
  return head;
}

// ---------------------------------------------------------------------------
// Page transfer

void DsmSystem::fetch_page(ThreadCtx& t, PageId p) {
  HYP_CHECK_MSG(!t.nd->is_home(p), "fetching a home page");
  auto* eng = sim::Engine::current();
  sim::Fiber* self = eng->current_fiber();

  // At most one outstanding fetch per (node, page); later threads wait.
  if (!t.nd->begin_fetch(p)) {
    t.nd->wait_fetch(p, self);
    return;
  }

  NodeId home = effective_home_of_page(p);
  const std::size_t page_bytes = layout_.page_bytes();
  const auto& cpu = cluster_->params().cpu;

  Buffer reply;
  if (fencing_ && ha_->suspected(home) && try_quorum_read(t, p, home, &reply)) {
    // Suspected-home window: a majority of the home's chain backups served
    // the read, so the fetch skips the detector's confirm wait entirely.
  } else {
    home = effective_home_of_page(p);  // a failed quorum read may have parked
    reply = call_home(t, home, p, svc::kPageRequest, page_bytes, [this, p](std::uint64_t epoch) {
      Buffer req;
      if (fencing_) req.put<std::uint64_t>(epoch);
      req.put<std::uint32_t>(p);
      return req;
    }, "page fetch");
    // Under HA the trace names the page's home as of the reply.
    if (ha_ != nullptr) home = effective_home_of_page(p);
  }
  if (t.nd->present(p)) {
    // A promotion or migration made this node the page's home while the
    // fetch was in flight: the arena bytes are already authoritative —
    // installing the reply as a cached replica would corrupt the presence
    // table.
    t.nd->finish_fetch(p);
    return;
  }
  HYP_CHECK_MSG(reply.size() == page_bytes, "page reply has wrong size");

  // Install the replica's bytes below its zone's allocation mark (the rest is
  // zero here as at the home) and charge the copy-in of the whole page. Read
  // after the reply, the mark covers every byte the reply can hold.
  const Gva base = layout_.page_base(p);
  const Gva mark = alloc_mark(layout_.home_of_page(p));
  std::memcpy(t.nd->page_ptr(p), reply.data(),
              mark > base ? std::min<std::size_t>(mark - base, page_bytes) : 0);
  t.clock.charge(cpu.copy_cost(page_bytes));
  // pf-mode replicas are twin-diffed. The twin copy is charged here, where
  // the paper's java_pf makes it; the host takes its bytes at the replica's
  // first local store (NodeDsm::take_twin).
  const bool with_twin = !ic_mode(*t.nd, p);
  t.nd->mark_cached(p, with_twin);
  if (with_twin) t.clock.charge(cpu.copy_cost(page_bytes));
  t.clock.flush();

  t.stats->add(Counter::kPageFetches);
  t.stats->add(Counter::kPageFetchBytes, page_bytes);
  if (heat_ != nullptr) [[unlikely]] heat_->record_fetch(p);
  cluster_->trace_event(t.node, cluster::TraceKind::kPageFetch, p, home);
  t.nd->finish_fetch(p);
}

void DsmSystem::fetch_until_present(ThreadCtx& t, PageId p) {
  // Observation wrapper around the fetch loop: the histogram/phase records
  // are pure accumulation plus two clock reads, so attaching them can never
  // shift virtual time (determinism_golden pins this).
  const Time t0 = cluster_->engine().now();
  while (!t.nd->present(p)) fetch_page(t, p);
  const TimeDelta waited = cluster_->engine().now() - t0;
  t.stats->record(Hist::kPageFetchLatency, waited);
  cluster_->phase_add(t.node, obs::Phase::kBlockedFetch, waited);
}

void DsmSystem::handle_page_request(cluster::Incoming& in, NodeId self) {
  const std::size_t page_bytes = layout_.page_bytes();
  if (fenced(in, self, svc::kPageRequest, page_bytes)) return;
  const auto p = in.reader.get<std::uint32_t>();
  NodeDsm& nd = node_dsm(self);
  if ((ha_ != nullptr || migrations_enabled()) && !nd.is_home(p)) {
    // Stale-home straggler: a retransmit that outlived a promotion, a
    // request reaching a restarted (demoted) node, or a request that raced a
    // hybrid home migration.
    nack_stale_home(in, self, svc::kPageRequest, page_bytes);
    return;
  }
  HYP_CHECK_MSG(nd.is_home(p), "page request reached a non-home node");

  // The home's CPU/service copies the page out; the reply departs when that
  // work completes.
  const Time done_at = cluster_->node(self).extend_service(
      cluster_->params().cpu.copy_cost(page_bytes));
  Buffer out = stamped_reply(self);
  out.put_bytes(nd.page_ptr(p), page_bytes);
  cluster_->reply(in, std::move(out), done_at - cluster_->engine().now());
}

bool DsmSystem::try_quorum_read(ThreadCtx& t, PageId p, NodeId home, Buffer* out) {
  const auto& f = cluster_->params().fault;
  const Time now = cluster_->engine().now();
  const std::uint32_t k = ha_->replicas();
  // A strict majority of the home's K chain backups must be up and reachable
  // (both directions) from the reader; with fewer votes this side cannot rule
  // out that the "suspected" home is healthy and serving the far side of a
  // cut, so the read falls back to the ordinary detector path.
  std::uint32_t votes = 0;
  NodeId backup = -1;
  bool self_holds = false;
  for (std::uint32_t i = 0; i < k; ++i) {
    const NodeId b = ha_->chain_backup(home, i);
    if (ha_->confirmed_dead(b) || f.crash_release(b, now) != 0) continue;
    if (b == t.node) {
      ++votes;
      self_holds = true;
      continue;
    }
    if (f.severed(t.node, b, now) || f.severed(b, t.node, now)) continue;
    ++votes;
    if (backup < 0) backup = b;
  }
  if (votes * 2 <= k) return false;

  const std::size_t page_bytes = layout_.page_bytes();
  if (backup < 0) {
    if (!self_holds) return false;
    backup = t.node;  // the reader itself carries the chain copy
  }
  if (backup == t.node) {
    Buffer local(page_bytes);
    local.put_bytes(node_dsm(effective_home_of_page(p)).page_ptr(p), page_bytes);
    t.clock.charge(cluster_->params().cpu.copy_cost(page_bytes));
    *out = std::move(local);
  } else {
    Buffer req;
    req.put<std::uint64_t>(ha_->node_epoch(t.node));
    req.put<std::uint32_t>(p);
    cluster::RpcResult r =
        cluster_->call_result(t.node, backup, svc::kQuorumRead, std::move(req));
    if (!r.ok() || r.payload.size() != page_bytes + sizeof(std::uint64_t)) return false;
    Buffer body(page_bytes);
    body.put_bytes(r.payload.data() + sizeof(std::uint64_t), page_bytes);
    *out = std::move(body);
  }
  t.stats->add(Counter::kHaQuorumReads);
  cluster_->trace_event(t.node, cluster::TraceKind::kHaQuorumRead, p, backup);
  return true;
}

void DsmSystem::handle_quorum_read(cluster::Incoming& in, NodeId self) {
  // Quorum reads are sent only under fencing (try_quorum_read).
  const std::size_t page_bytes = layout_.page_bytes();
  if (fenced(in, self, svc::kQuorumRead, page_bytes)) return;
  const auto p = in.reader.get<std::uint32_t>();
  // The chain backup serves the page from its replicated copy of the home's
  // state. The modeled checkpoint stream keeps replicas current with every
  // committed update (docs/RECOVERY.md), so the effective home's arena IS the
  // replica's contents — the simulator reads it directly instead of keeping a
  // second materialized copy per backup.
  const Time done_at = cluster_->node(self).extend_service(
      cluster_->params().cpu.copy_cost(page_bytes));
  Buffer out = stamped_reply(self);
  out.put_bytes(node_dsm(effective_home_of_page(p)).page_ptr(p), page_bytes);
  cluster_->reply(in, std::move(out), done_at - cluster_->engine().now());
}

// ---------------------------------------------------------------------------
// Protocol cold paths

void DsmSystem::miss(ThreadCtx& t, PageId p) {
  const auto& cpu = cluster_->params().cpu;
  const bool was_ic = ic_mode(*t.nd, p);
  if (!was_ic) {
    // pf-mode pages sit behind page protection while absent, so this miss
    // was a hardware trap + kernel + SIGSEGV dispatch (the paper's 12/22
    // us); ic-mode pages found the miss via the inline check the fast path
    // already charged.
    t.stats->add(Counter::kPageFaults);
    if (heat_ != nullptr) [[unlikely]] heat_->record_fault(p);
    cluster_->trace_event(t.node, cluster::TraceKind::kPageFault, p);
    t.clock.charge(cpu.page_fault_cost);
  }
  t.clock.flush();
  // hybrid mode decision: made before the fetch (the fetch must know
  // whether to twin) and only by the fiber that will start it — waiters
  // inherit the decision already in flight. Between two misses the page
  // served `acc` accesses: ic would have cost acc checks, pf one fault +
  // mprotect = R checks — so ic wins below R accesses per miss. The rule is
  // a hysteresis band around that break-even: leave ic once acc >= R * miss,
  // but re-enter it only when clearly favorable (4 * acc < R * miss).
  // Without the band, pages hovering near R oscillate — give up
  // mid-generation, flip back at the next miss, and pay the flip overhead
  // (twin snapshot + mprotect + the re-entry fault) every round on top of
  // the checks. Inside the band both modes cost within 4x of each other, so
  // staying put is the cheap choice. The at-miss decision is not the only
  // escape: a page wrongly left in ic bleeds one check per access with no
  // miss in sight (e.g. a read-once-then-scan page never misses again
  // inside a generation), so the fast path bails out through give_up_ic
  // once the raw tally crosses R — capping the wrong-ic loss at one
  // fault-equivalent per generation. A wrongly-pf page already costs at
  // most R per miss by construction. First touch (acc ~ 0, miss = 1) keeps
  // the fresh page's ic start: sparse pages never pay a blind fault.
  if (kind_ == ProtocolKind::kHybrid && !t.nd->fetch_inflight(p)) {
    const std::uint64_t epoch = cluster_->engine().now() / kModeEpoch;
    wheat_.note_miss(t.node, p, epoch);
    const std::uint64_t acc = wheat_.accesses(t.node, p);
    const std::uint64_t misses = wheat_.misses(t.node, p);  // >= 1: note_miss counted this one
    const std::uint64_t breakeven = static_cast<std::uint64_t>(hybrid_r_) * misses;
    const bool next_ic = was_ic ? acc < breakeven : 4 * acc < breakeven;
    if (next_ic != was_ic) {
      t.nd->set_ic_mode(p, next_ic);
      t.stats->add_named("dsm_mode_switches");
      cluster_->trace_event(t.node, cluster::TraceKind::kModeSwitch, p, next_ic ? 1 : 0);
    }
  }
  fetch_until_present(t, p);
  if (!was_ic) {
    // mprotect re-opens the trapped page READ/WRITE, whatever mode it
    // continues in.
    t.stats->add(Counter::kMprotectCalls);
    t.clock.charge(cpu.mprotect_page_cost);
    t.clock.flush();
  }
}

void DsmSystem::give_up_ic(ThreadCtx& t, PageId p) {
  // The at-miss decision cannot help a page that stops missing: a page read
  // once and then scanned densely (ASP's row-k broadcast is the archetype)
  // would pay a check on every access forever. The fast path calls this once
  // the raw tally since the last fold reaches R — the point where the checks
  // already paid equal one fault + mprotect, so switching now caps the loss.
  // Deliberately yield-free (no clock.flush): the caller re-reads the
  // presence byte it already loaded and a park here could let another fiber
  // invalidate the page under a half-done access.
  if (!t.nd->ic_mode(p) || !t.nd->present(p)) return;
  const auto& cpu = cluster_->params().cpu;
  wheat_.fold(t.node, p, cluster_->engine().now() / kModeEpoch);
  if (!t.nd->is_home(p) && !t.nd->has_twin(p)) {
    // pf-mode replicas are twin-diffed at flush; twin this one now so bare
    // stores made after the flip are still shipped home (the first of them
    // takes the twin's bytes, which then hold the page as of the flip).
    // Stores made before it are already in the write log — the two cover the
    // generation with no gap and no double-send.
    t.nd->ensure_twin(p);
    t.clock.charge(cpu.copy_cost(layout_.page_bytes()));
  }
  t.nd->set_ic_mode(p, false);
  t.stats->add(Counter::kMprotectCalls);
  t.clock.charge(cpu.mprotect_page_cost);
  t.stats->add_named("dsm_mode_switches");
  cluster_->trace_event(t.node, cluster::TraceKind::kModeSwitch, p, 0);
}

// ---------------------------------------------------------------------------
// Table 2 primitives

void DsmSystem::load_into_cache(ThreadCtx& t, Gva addr) {
  const PageId p = layout_.page_of(addr);
  t.clock.flush();
  if (t.nd->present(p)) return;  // prefetch of a present page: nothing to log
  fetch_until_present(t, p);
}

void DsmSystem::invalidate_cache(ThreadCtx& t) {
  const auto& cpu = cluster_->params().cpu;
  const std::size_t cached = t.nd->cached_pages().size();
  // One region-wide mprotect re-protects every non-home page (§3.3: "this
  // protection is set on each entry to a monitor"). java_pf always pays it.
  // Under hybrid only pf-mode replicas — exactly the cached pages holding a
  // twin — sit behind page protection, so it is skipped when none is cached:
  // the structural saving over java_pf on check-heavy workloads. java_ic
  // never twins and never pays.
  if (kind_ == ProtocolKind::kJavaPf || t.nd->live_twins() != 0) {
    t.stats->add(Counter::kMprotectCalls);
    t.clock.charge(cpu.mprotect_region_cost);
  }
  t.clock.charge(cpu.cycles(cpu.invalidate_page_cycles * cached));
  const std::size_t dropped = t.nd->invalidate_all();
  t.stats->add(Counter::kInvalidations, dropped);
  cluster_->trace_event(t.node, cluster::TraceKind::kInvalidate,
                        static_cast<std::int64_t>(dropped));
  t.clock.flush();
}

void DsmSystem::on_acquire(ThreadCtx& t) {
  // Conservative JMM: make our modifications visible, then drop all cached
  // copies so subsequent reads see fresh home data.
  update_main_memory(t);
  invalidate_cache(t);
}

void DsmSystem::on_release(ThreadCtx& t) { update_main_memory(t); }

// ---------------------------------------------------------------------------
// updateMainMemory: one pipeline for every protocol
//
// collect -> group -> ship. Collect snapshots the thread's modifications into
// the two lanes of its FlushScratch: the write log of ic-mode pages,
// deduplicated to last-writer-wins in first-touch order, then the twin diff
// of every twinned (pf-mode) replica. java_ic never twins and java_pf never
// logs, so each fills one lane; hybrid fills both. Group tags every item
// with its cohort key (CohortKey in dsm.hpp). Ship sends one acked message
// per cohort, or applies the cohort in place when this node is its home.
//
// Wire format of both update services: u32 item count, then per item u64
// gva, its length (u8 for a field of kUpdateFields, u32 for a run of
// kUpdateRuns) and that many payload bytes. Runs are maximal spans of modified 8-byte words. With fencing on,
// the epoch leads, put in per attempt (call_home). Success acks are empty,
// or the home's epoch view under fencing; a 1-byte reply is a NACK.

namespace {
// Both the arena page and the twin are at least 8-byte aligned; memcpy of a
// u64 compiles to one plain load.
inline std::uint64_t load_word(const std::byte* base, std::size_t w) {
  std::uint64_t v;
  std::memcpy(&v, base + w * 8, 8);
  return v;
}
}  // namespace

DsmSystem::CohortKey DsmSystem::cohort_rule() const {
  if (kind_ == ProtocolKind::kHybrid) return ha_ != nullptr ? CohortKey::kPage : CohortKey::kHome;
  return ha_ != nullptr && ha_->replicas() > 1 ? CohortKey::kZone : CohortKey::kHome;
}

std::uint32_t DsmSystem::cohort_key(CohortKey rule, Gva a) const {
  switch (rule) {
    case CohortKey::kHome: return static_cast<std::uint32_t>(effective_home_of(a));
    case CohortKey::kZone: return static_cast<std::uint32_t>(layout_.home_of(a));
    case CohortKey::kPage: return layout_.page_of(a);
  }
  HYP_PANIC("unreachable cohort key");
}

void DsmSystem::update_main_memory(ThreadCtx& t) {
  // A consistency action is a synchronization point: materialize the
  // thread's batched compute first (otherwise pending time is silently
  // dropped on paths that have nothing to flush, e.g. thread termination).
  t.clock.flush();
  const auto& cpu = cluster_->params().cpu;
  const CohortKey rule = cohort_rule();
  const std::uint64_t keyed_at = home_migrations_;
  FlushScratch& s = t.scratch;
  s.begin();

  // Collect the write log: last writer wins per field, first-touch order.
  if (!t.wlog.empty()) {
    s.dedup.begin(t.wlog.size());
    for (const WriteLogEntry& e : t.wlog.entries()) {
      bool fresh = false;
      DedupTable::Slot* slot = s.dedup.find_or_insert(e.addr, &fresh);
      if (fresh) {
        slot->index = static_cast<std::uint32_t>(s.fields.size());
        s.fields.push_back({e.addr, cohort_key(rule, e.addr), e.size, e.value});
      } else {
        s.fields[slot->index].len = e.size;
        s.fields[slot->index].data = e.value;
      }
    }
    t.clock.charge(cpu.cycles(cpu.update_entry_cycles * t.wlog.size()));
    t.clock.flush();
  }

  // Collect the twin diffs. Scan, snapshot and twin refresh happen
  // atomically in virtual time (no yields): a same-node thread writing
  // during our later sends must see its own writes as fresh diffs against
  // the refreshed twin, not have them silently absorbed. Run payloads are
  // snapshotted into the scratch arena (offsets, not pointers: the arena may
  // grow mid-scan).
  //
  // The scan compares aligned u64 words, skipping clean 64-byte chunks with
  // one OR-of-XORs test. Run boundaries are identical to a word-at-a-time
  // scan: a chunk is skipped only when all eight words match. Every twinned
  // replica is charged its diff; only those stored to since their fetch hold
  // twin bytes, and only they are compared.
  if (t.nd->live_twins() != 0) {
    const std::size_t page_bytes = layout_.page_bytes();
    const std::size_t words = page_bytes / 8;
    std::uint64_t diff_words = 0;
    for (PageId p : t.nd->cached_pages()) {
      if (!t.nd->has_twin(p)) continue;
      t.clock.charge(cpu.diff_cost(page_bytes));
      if (!t.nd->has_twin_bytes(p)) continue;
      const std::byte* cur = t.nd->page_ptr(p);
      const std::byte* twin = t.nd->twin(p);
      const std::uint32_t key = cohort_key(rule, layout_.page_base(p));
      bool page_dirty = false;
      std::size_t w = 0;
      while (w < words) {
        if ((w & 7) == 0 && w + 8 <= words) {
          std::uint64_t acc = 0;
          for (std::size_t k = 0; k < 8; ++k) {
            acc |= load_word(cur, w + k) ^ load_word(twin, w + k);
          }
          if (acc == 0) {
            w += 8;
            continue;
          }
        }
        if (load_word(cur, w) == load_word(twin, w)) {
          ++w;
          continue;
        }
        const std::size_t run_begin = w;
        while (w < words && load_word(cur, w) != load_word(twin, w)) ++w;
        diff_words += w - run_begin;
        page_dirty = true;
        s.runs.push_back({layout_.page_base(p) + run_begin * 8, key,
                          static_cast<std::uint32_t>((w - run_begin) * 8), s.run_bytes.size()});
        s.run_bytes.insert(s.run_bytes.end(), cur + run_begin * 8, cur + w * 8);
      }
      if (page_dirty) t.nd->refresh_twin(p);
    }
    t.stats->add(Counter::kDiffWords, diff_words);
    t.clock.flush();
  }

  // Ship. The write log stays in place until its lane is home: a hand-off
  // meanwhile replays it (replay_logged_writes).
  ship(t, rule, /*runs=*/false, keyed_at);
  t.wlog.clear();
  ship(t, rule, /*runs=*/true, keyed_at);
}

void DsmSystem::ship(ThreadCtx& t, CohortKey rule, bool runs, std::uint64_t keyed_at) {
  const auto& cpu = cluster_->params().cpu;
  FlushScratch& s = t.scratch;
  std::vector<PendingUpdate>& lane = runs ? s.runs : s.fields;
  const cluster::ServiceId service = runs ? svc::kUpdateRuns : svc::kUpdateFields;
  const char* what = runs ? "diff flush" : "write-log flush";
  int reroutes = 0;
  while (!lane.empty()) {
    if (keyed_at != home_migrations_) {
      // A home migrated (hybrid) since the keys were taken: re-key the
      // unshipped remainder, a NACKed cohort included, by the current homes.
      for (PendingUpdate& u : lane) u.key = cohort_key(rule, u.addr);
      keyed_at = home_migrations_;
    }
    // Peel one cohort: the first pending item leads under hybrid, the
    // smallest key under java_ic/java_pf.
    std::size_t lead = 0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < lane.size(); ++i) {
      if (kind_ != ProtocolKind::kHybrid && lane[i].key < lane[lead].key) {
        lead = i;
        count = 0;
      }
      if (lane[i].key == lane[lead].key) ++count;
    }
    const std::uint32_t key = lane[lead].key;
    const Gva lead_addr = lane[lead].addr;
    const auto in_cohort = [key](const PendingUpdate& u) { return u.key == key; };
    const NodeId home =
        rule == CohortKey::kHome ? static_cast<NodeId>(key) : effective_home_of(lead_addr);
    if (home == t.node) {
      // A promotion or migration made this node the home: apply exactly the
      // bytes the wire would have carried straight into the arena.
      HYP_CHECK_MSG(ha_ != nullptr || migrations_enabled(), "home-page writes are never flushed");
      std::size_t bytes = 0;
      for (const PendingUpdate& u : lane) {
        if (!in_cohort(u)) continue;
        std::memcpy(t.nd->arena() + u.addr, s.payload(u, runs), u.len);
        bytes += u.len;
      }
      t.clock.charge(runs ? cpu.copy_cost(bytes) : cpu.cycles(cpu.update_entry_cycles * count));
      t.clock.flush();
    } else {
      // The message is rebuilt per attempt (build below), so its size is
      // summed from the wire format here, once per cohort sent.
      std::size_t msg_bytes = sizeof(std::uint32_t);
      for (const PendingUpdate& u : lane) {
        if (!in_cohort(u)) continue;
        msg_bytes += sizeof(std::uint64_t) + (runs ? sizeof(std::uint32_t) : 1) + u.len;
        if (heat_ != nullptr) [[unlikely]] heat_->record_update(layout_.page_of(u.addr), u.len);
      }
      t.stats->add(Counter::kUpdatesSent);
      t.stats->add(Counter::kUpdateBytes, msg_bytes);
      t.stats->record(Hist::kUpdatePayloadBytes, msg_bytes);
      cluster_->trace_event(t.node, cluster::TraceKind::kUpdateSent, home,
                            static_cast<std::int64_t>(msg_bytes));
      const auto build = [&](std::uint64_t epoch) {
        Buffer msg;
        if (fencing_) msg.put<std::uint64_t>(epoch);
        msg.put<std::uint32_t>(static_cast<std::uint32_t>(count));
        for (const PendingUpdate& u : lane) {
          if (!in_cohort(u)) continue;
          msg.put<std::uint64_t>(u.addr);
          if (runs) {
            msg.put<std::uint32_t>(u.len);
          } else {
            msg.put<std::uint8_t>(static_cast<std::uint8_t>(u.len));
          }
          msg.put_bytes(s.payload(u, runs), u.len);
        }
        return msg;
      };
      // Routed by the lead's page: a cohort never mixes pages with different
      // routing fates (CohortKey).
      NodeId target = effective_home_of(lead_addr);
      if (!call_home(t, target, layout_.page_of(lead_addr), service, /*ok_body_bytes=*/0, build,
                     what, /*nack_to_caller=*/true)
               .empty()) {
        // Migration NACK (hybrid, no HA): the home moved while the message was
        // in flight. The cohort stays pending; the next round re-keys it.
        HYP_CHECK_MSG(++reroutes < kMaxReroutes,
                      "update flush: migration reroute did not converge");
        continue;
      }
    }
    reroutes = 0;
    std::erase_if(lane, in_cohort);
  }
}

void DsmSystem::handle_update(cluster::Incoming& in, NodeId self, bool runs) {
  const cluster::ServiceId service = runs ? svc::kUpdateRuns : svc::kUpdateFields;
  NodeDsm& nd = node_dsm(self);
  if (fenced(in, self, service, /*ok_body_bytes=*/0)) return;
  // Streaming apply: no per-message item vector (zero-allocation path).
  bool stale = false;
  std::size_t bytes = 0;
  if (migrations_enabled()) mig_batch_.clear();
  const auto count = in.reader.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto addr = in.reader.get<std::uint64_t>();
    const std::uint32_t len =
        runs ? in.reader.get<std::uint32_t>() : in.reader.get<std::uint8_t>();
    HYP_CHECK_MSG(runs || len == 1 || len == 2 || len == 4 || len == 8,
                  "corrupt write-log entry size");
    const auto payload = in.reader.get_span(len);
    const PageId pg = layout_.page_of(addr);
    const bool home = nd.is_home(pg);
    if ((ha_ != nullptr || migrations_enabled()) && !home) {
      // Stale-home straggler (one cohort never mixes pages with different
      // routing fates, so the whole message is stale together): keep
      // consuming the reader and NACK the whole message below.
      stale = true;
      continue;
    }
    HYP_CHECK_MSG(home, "update reached a non-home node");
    std::memcpy(nd.arena() + addr, payload.data(), len);
    bytes += len;
    if (migrations_enabled()) {
      // Per-page byte subtotals for the dominant-writer tracker (fed after
      // the whole message has applied — migrating mid-decode would misroute
      // the remaining items).
      auto it = std::find_if(mig_batch_.begin(), mig_batch_.end(),
                             [pg](const auto& pr) { return pr.first == pg; });
      if (it != mig_batch_.end()) {
        it->second += len;
      } else {
        mig_batch_.emplace_back(pg, len);
      }
    }
  }
  if (stale) {
    nack_stale_home(in, self, service, /*ok_body_bytes=*/0);
    return;
  }
  // Home state changed: incremental checkpoint traffic to the backup,
  // piggybacked on this very update (docs/RECOVERY.md).
  if (ha_ != nullptr && bytes != 0) ha_->note_checkpoint(self, bytes);
  if (migrations_enabled()) {
    for (const auto& pr : mig_batch_) note_remote_update(self, pr.first, in.from, pr.second);
    mig_batch_.clear();
  }
  // The home's service cost: per entry for fields, per byte for runs.
  const auto& cpu = cluster_->params().cpu;
  const Time done_at = cluster_->node(self).extend_service(
      runs ? cpu.copy_cost(bytes) : cpu.cycles(cpu.update_entry_cycles * count));
  // Home-side confirmation of the flush; pairs with the sender's kUpdateSent
  // for cross-node Perfetto flow arrows (docs/OBSERVABILITY.md).
  cluster_->trace_event(self, cluster::TraceKind::kUpdateApplied, in.from,
                        static_cast<std::int64_t>(runs ? bytes : count));
  cluster_->reply(in, stamped_reply(self), done_at - cluster_->engine().now());
}

// ---------------------------------------------------------------------------
// hybrid: heat-driven home migration (docs/PROTOCOLS.md §hybrid)

void DsmSystem::note_remote_update(NodeId self, PageId p, NodeId from, std::uint64_t bytes) {
  if (from < 0 || from == self) return;
  MigStat& st = mig_[p];
  const std::uint64_t e = cluster_->engine().now() / kMigEpoch;
  if (e != st.epoch) {
    // Close the open window. A clear byte-majority survivor extends the
    // dominance streak only across strictly consecutive epochs — idle gaps
    // break it, so sporadic traffic never accumulates into a migration.
    const bool dom = st.cand != 0 && st.total >= kMigMinBytes &&
                     st.weight * 2 > static_cast<std::int64_t>(st.total);
    if (!dom || e != st.epoch + 1) {
      st.streak = 0;
      st.last_dom = 0;
    }
    if (dom) {
      if (st.cand == st.last_dom) {
        ++st.streak;
      } else {
        st.last_dom = st.cand;
        st.streak = 1;
      }
    }
    const NodeId target = st.last_dom - 1;
    const bool fire = st.streak >= kMigStreak && target >= 0;
    st.epoch = e;
    st.cand = 0;
    st.weight = 0;
    st.total = 0;
    if (fire) {
      st.streak = 0;
      st.last_dom = 0;
      maybe_migrate(self, p, target);
      if (effective_home_of_page(p) != self) return;  // moved: tracking restarts there
    }
  }
  // Weighted Boyer–Moore vote into the open window: the survivor of
  // byte-weighted pairwise cancellation is the only possible majority writer;
  // the margin test at window close rejects accidental survivors.
  st.total += bytes;
  if (st.cand == from + 1) {
    st.weight += static_cast<std::int64_t>(bytes);
  } else if (st.weight >= static_cast<std::int64_t>(bytes)) {
    st.weight -= static_cast<std::int64_t>(bytes);
  } else {
    st.weight = static_cast<std::int64_t>(bytes) - st.weight;
    st.cand = from + 1;
  }
}

void DsmSystem::maybe_migrate(NodeId self, PageId p, NodeId target) {
  if (target < 0 || target >= cluster_->node_count() || target == self) return;
  if (effective_home_of_page(p) != self) return;  // routing changed under us
  const auto& f = cluster_->params().fault;
  const Time now = cluster_->engine().now();
  // Never migrate toward a node that is (or is about to be) unavailable, nor
  // across an open cut — the handoff below is synchronous in the model.
  if (ha_ != nullptr && (ha_->confirmed_dead(target) || ha_->suspected(target))) return;
  if (f.crash_release(target, now) != 0) return;
  if (f.severed(self, target, now) || f.severed(target, self, now)) return;

  hand_off(p, p + 1, self, target);
  node_dsm(self).demote_home(p, p + 1);
  home_override_[p] = target + 1;
  mig_[p] = MigStat{};

  ++home_migrations_;
  cluster_->node(self).stats().add_named("dsm_home_migrations");
  cluster_->trace_event(self, cluster::TraceKind::kHomeMigrated, p, target);
  // Handoff cost: one page copy out of the old home's service queue and one
  // into the new one's. The transfer itself rides the modeled checkpoint
  // path (the same global-metadata idealization as quorum reads).
  const auto& cpu = cluster_->params().cpu;
  const std::size_t page_bytes = layout_.page_bytes();
  cluster_->node(self).extend_service(cpu.copy_cost(page_bytes));
  cluster_->node(target).extend_service(cpu.copy_cost(page_bytes));
  if (ha_ != nullptr) ha_->note_checkpoint(target, page_bytes);
}

void DsmSystem::hand_off(PageId first, PageId last, NodeId from, NodeId to) {
  NodeDsm& src = node_dsm(from);
  NodeDsm& dst = node_dsm(to);
  const std::size_t page_bytes = layout_.page_bytes();
  const Gva begin = layout_.page_base(first);
  const Gva end = layout_.page_base(last);
  // Only the bytes below the zone's allocation mark differ from zero.
  const Gva mark = std::min(end, alloc_mark(layout_.home_of_page(first)));
  for (PageId p = first; layout_.page_base(p) < mark; ++p) {
    const Gva at = layout_.page_base(p);
    const std::size_t n = std::min<std::size_t>(page_bytes, mark - at);
    std::byte* cur = dst.arena() + at;
    const std::byte* bytes = src.arena() + at;
    if (!dst.has_twin_bytes(p)) {
      std::memcpy(cur, bytes, n);  // no local store: nothing of `to`'s to keep
      continue;
    }
    // `to`'s unflushed pf stores are its bytes that differ from the twin;
    // every other byte takes the old home's. Byte, not word, granularity: a
    // third node's flushed store may share a word with one of them.
    const std::byte* twin = dst.twin(p);
    for (std::size_t i = 0; i < n; ++i) {
      if (cur[i] == twin[i]) cur[i] = bytes[i];
    }
  }
  dst.promote_to_home(first, last);
  replay_logged_writes(to, begin, end);  // `to`'s unflushed ic stores
  if (home_moved_) home_moved_(from, to, begin, end);
}

void DsmSystem::on_node_dead(NodeId dead) {
  if (home_override_.empty()) return;
  NodeDsm& dnd = node_dsm(dead);
  for (std::size_t i = 0; i < home_override_.size(); ++i) {
    if (home_override_[i] != dead + 1) continue;
    const PageId p = static_cast<PageId>(i);
    home_override_[i] = 0;
    mig_[i] = MigStat{};
    // Strip the dead node's authority now: when it restarts it must NACK
    // stragglers for pages it no longer serves (demote leaves the arena
    // bytes — the mirrored replica state — intact).
    dnd.demote_home(p, p + 1);
    const NodeId back = effective_home_of_page(p);
    if (back == dead) continue;  // its own zone: confirm_death's failover realizes it
    // Re-realize the page at the fallback home from the dead node's
    // replicated state, preserving the fallback's own unflushed writes.
    hand_off(p, p + 1, dead, back);
    cluster_->node(back).stats().add_named("dsm_migrations_reverted");
    cluster_->trace_event(dead, cluster::TraceKind::kHomeMigrated, p, back);
  }
}

}  // namespace hyp::dsm
