#include "ha/ha.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/assert.hpp"

namespace hyp::ha {

using cluster::FaultWindow;
using cluster::NodeId;
using cluster::TraceKind;

namespace {
// Wire header of one checkpoint-stream message: origin home, hop index,
// delta byte count, reserved. The delta itself rides as padding so the
// network model charges the real checkpoint size (common/buffer.hpp).
constexpr std::size_t kCkptHeaderBytes = 4 * sizeof(std::uint32_t);

// Sorted-unique insertion into an ascending zone list (the reverse indexes
// iterate in ascending zone order, matching the old full scans).
void insert_sorted(std::vector<NodeId>& v, NodeId x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) v.insert(it, x);
}
}  // namespace

HaManager::HaManager(cluster::Cluster* cluster, dsm::DsmSystem* dsm,
                     hyperion::MonitorSubsystem* monitors)
    : cluster_(cluster), dsm_(dsm), monitors_(monitors) {
  const auto n = static_cast<std::size_t>(cluster_->node_count());
  zone_home_.resize(n);
  home_zones_.resize(n);
  snap_zones_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    zone_home_[i] = static_cast<NodeId>(i);
    home_zones_[i].push_back(static_cast<NodeId>(i));
  }
  health_.resize(n);
  zone_snaps_.resize(n);
  ckpt_busy_until_.resize(n, 0);
  const auto& f = cluster_->params().fault;
  const auto max_depth =
      static_cast<std::uint32_t>(cluster_->node_count() > 0 ? cluster_->node_count() - 1 : 0);
  chain_depth_ = std::min(f.replicas, max_depth);
  // The stream gets its own identity as soon as it is given chain depth or a
  // bandwidth budget; plain replicas=1 keeps the classic piggyback
  // accounting (and the recovery golden) byte-identical.
  stream_enabled_ = f.replicas > 1 || f.ckpt_bw != 0;
  // Partition machinery (per-watcher heartbeat views, quorum promotion,
  // per-node epochs) engages only when the profile schedules partitions;
  // crash-only runs keep the exact detector the recovery goldens pin.
  partitions_cfg_ = !f.partitions.empty();
  node_epoch_.resize(n, 0);
  if (partitions_cfg_) {
    heard_.assign(n, std::vector<Time>(n, 0));
  }
}

void HaManager::zone_pages(NodeId zone, dsm::PageId* first, dsm::PageId* last) const {
  const dsm::Layout& layout = dsm_->layout();
  *first = static_cast<dsm::PageId>(layout.zone_begin(zone) / layout.page_bytes());
  *last = static_cast<dsm::PageId>(layout.zone_end(zone) / layout.page_bytes());
}

std::size_t HaManager::live_prefix(NodeId zone) const {
  const std::size_t page_bytes = dsm_->layout().page_bytes();
  const std::size_t used = dsm_->node_dsm(zone).allocated_bytes();
  return (used + page_bytes - 1) & ~(page_bytes - 1);
}

void HaManager::start() {
  const auto& f = cluster_->params().fault;
  const int count = cluster_->node_count();
  // Profile validity (node 0, window shapes, detector tuning, same-node
  // overlap) was enforced at parse time (cluster/params.cpp). What remains
  // here is the one check that needs the actual cluster size and placement:
  // a zone must never lose all of its K+1 copies at once. Windows naming
  // nodes this run does not have are inert (sweeps reuse one profile across
  // cluster sizes).
  for (const FaultWindow& c : f.crashes) {
    if (c.node >= count) continue;
    bool recoverable = chain_depth_ > 0;
    if (recoverable) {
      recoverable = false;
      for (std::uint32_t i = 0; i < chain_depth_ && !recoverable; ++i) {
        const NodeId m = chain_member(c.node, i);
        bool covered = false;
        for (const FaultWindow& w : f.crashes) {
          if (w.node == m && w.node < count && w.start < c.end() && c.start < w.end()) {
            covered = true;
            break;
          }
        }
        recoverable = !covered;
      }
    }
    HYP_CHECK_MSG(recoverable,
                  "unrecoverable crash schedule: node " + std::to_string(c.node) +
                      "'s home zone would lose all " + std::to_string(chain_depth_ + 1) +
                      " copies (the home and its " + std::to_string(chain_depth_) +
                      " chain backups are down together) — raise replicas= or separate "
                      "the crash windows (docs/RECOVERY.md)");
  }

  auto& eng = cluster_->engine();
  const Time now = eng.now();
  for (auto& h : health_) h.last_heard = now;
  for (auto& row : heard_) {
    for (Time& t : row) t = now;
  }
  // Big clusters coalesce the detector into one sweep event per interval
  // (same side effects in the same order — see sweep()); small clusters keep
  // the per-node tick chains the recovery goldens' event counts pin.
  if (f.hb_coalesce != 0 && static_cast<std::uint32_t>(count) >= f.hb_coalesce) {
    eng.post(now + f.hb_interval, [this]() { sweep(); });
  } else {
    for (NodeId n = 0; n < count; ++n) {
      eng.post(now + f.hb_interval, [this, n]() { tick(n); });
    }
  }
  for (const FaultWindow& c : f.crashes) {
    if (c.node >= count) continue;
    eng.post(c.start, [this, c]() { on_crash(c); });
    eng.post(c.end(), [this, c]() { on_restart(c); });
  }
  // A partition window applies only if it actually splits this run's nodes:
  // both groups need at least one in-range member (sweeps reuse one profile
  // across cluster sizes, like the crash windows above).
  for (std::size_t i = 0; i < f.partitions.size(); ++i) {
    const cluster::PartitionWindow& w = f.partitions[i];
    bool a_in = false;
    bool b_in = false;
    for (NodeId a : w.group_a) a_in = a_in || a < count;
    for (NodeId b : w.group_b) b_in = b_in || b < count;
    if (!a_in || !b_in) continue;
    eng.post(w.start, [this, i]() { on_partition(i, /*open=*/true); });
    eng.post(w.end(), [this, i]() { on_partition(i, /*open=*/false); });
  }

  if (stream_enabled_) {
    for (NodeId n = 0; n < count; ++n) {
      cluster_->node(n).register_service(
          svc::kHaCheckpoint, "ha_checkpoint",
          [this, n](cluster::Incoming& in) { handle_checkpoint(in, n); });
    }
  }
}

void HaManager::stop() { stopped_ = true; }

void HaManager::tick_node(NodeId n, Time now, const cluster::FaultProfile& f) {
  // A crashed node's CPU is dead: it neither heartbeats nor watches. Its
  // silence is exactly what its chain watchers measure.
  if (f.crash_release(n, now) != 0) return;
  health_[static_cast<std::size_t>(n)].last_heard = now;
  cluster_->node(n).stats().add(Counter::kHaHeartbeats);
  if (partitions_cfg_) {
    // The management path is cut by partitions too: a heartbeat reaches only
    // the chain watchers on the sender's side of every open window.
    for (std::uint32_t i = 0; i < chain_depth_; ++i) {
      const NodeId w = chain_member(n, i);
      if (!f.severed(n, w, now)) heard_[static_cast<std::size_t>(w)][static_cast<std::size_t>(n)] = now;
    }
  }

  const int count = cluster_->node_count();
  // Watcher duty over the K watched ring predecessors: node n is chain
  // member i of predecessor (n - 1 - i), so between them the chain
  // members cover every node whose state they mirror. With replicas=1
  // this is exactly the classic single-predecessor watch.
  for (std::uint32_t i = 0; i < chain_depth_; ++i) {
    const NodeId pred =
        static_cast<NodeId>(((n - 1 - static_cast<int>(i)) % count + count) % count);
    Health& h = health_[static_cast<std::size_t>(pred)];
    if (h.confirmed) continue;
    const Time heard = partitions_cfg_
                           ? heard_[static_cast<std::size_t>(n)][static_cast<std::size_t>(pred)]
                           : h.last_heard;
    const Time silence = now - heard;
    if (partitions_cfg_ && h.suspected && silence < f.suspect_after) {
      // This watcher hears the suspect fine: the suspicion came from a cut
      // watcher on the other side, not from a death. Keeping it cleared here
      // is what blocks cross-cut confirmations when the suspect's chain is
      // split (the chain-majority vote would fail anyway); a genuinely dead
      // node is silent toward every watcher, so this never fires for one.
      h.suspected = false;
    }
    if (silence >= f.suspect_after && !h.suspected) {
      h.suspected = true;
      cluster_->trace_event(n, TraceKind::kHaSuspected, pred,
                            static_cast<std::int64_t>(silence / kMicrosecond));
    }
    if (h.suspected && silence >= f.confirm_after) {
      confirm_death(pred, n, silence);
    }
  }
}

void HaManager::tick(NodeId n) {
  if (stopped_) return;
  auto& eng = cluster_->engine();
  const Time now = eng.now();
  const auto& f = cluster_->params().fault;
  tick_node(n, now, f);
  eng.post(now + f.hb_interval, [this, n]() { tick(n); });
}

void HaManager::sweep() {
  if (stopped_) return;
  auto& eng = cluster_->engine();
  const Time now = eng.now();
  const auto& f = cluster_->params().fault;
  const int count = cluster_->node_count();
  // Ascending node order = the seq order the per-node tick chains fire in at
  // every interval (posted ascending at start, re-posted in firing order).
  for (NodeId n = 0; n < count; ++n) tick_node(n, now, f);
  eng.post(now + f.hb_interval, [this]() { sweep(); });
}

void HaManager::on_crash(const FaultWindow& c) {
  auto& eng = cluster_->engine();
  const Time now = eng.now();
  health_[static_cast<std::size_t>(c.node)].crash_started = now;
  cluster_->trace_event(c.node, TraceKind::kNodeCrash,
                        static_cast<std::int64_t>(c.end() / kMicrosecond), 0);
  // Freeze the node's execution resources until the restart: compute already
  // queued behind the reservation lands after the window, so no virtual-time
  // work is attributed to a dead CPU. (The transport side is handled by
  // FaultProfile::apply_windows — arrivals vanish — and the outbound hold in
  // Cluster::tx_transmit.)
  auto freeze = [&](sim::FifoServer& server) {
    const Time base = now > server.free_at() ? now : server.free_at();
    if (base < c.end()) server.reserve(c.end() - base);
  };
  cluster::Node& node = cluster_->node(c.node);
  freeze(node.app_cpu());
  freeze(node.service_queue());
}

cluster::NodeId HaManager::elect_home(NodeId zone, NodeId dead, NodeId watcher,
                                      Time now) const {
  const auto& f = cluster_->params().fault;
  for (std::uint32_t i = 0; i < chain_depth_; ++i) {
    const NodeId cand = chain_member(dead, i);
    if (health_[static_cast<std::size_t>(cand)].confirmed) continue;
    if (f.crash_release(cand, now) != 0) continue;  // down, even if unconfirmed
    // Never elect a home the promoting side cannot reach: the promotion
    // quorum guarantees at least one chain member is alive on this side.
    if (partitions_cfg_ && cand != watcher &&
        (f.severed(watcher, cand, now) || f.severed(cand, watcher, now))) {
      continue;
    }
    return cand;
  }
  HYP_PANIC("HA: zone " + std::to_string(zone) + " lost all " +
            std::to_string(chain_depth_ + 1) + " copies — home node " + std::to_string(dead) +
            " and its " + std::to_string(chain_depth_) +
            " chain backups are all down; raise replicas= or separate the crash windows "
            "(docs/RECOVERY.md)");
}

bool HaManager::promotion_quorum(NodeId dead, NodeId watcher, Time now) const {
  if (!partitions_cfg_) return true;
  const auto& f = cluster_->params().fault;
  const int count = cluster_->node_count();
  // (1) Corroborated majority: the watcher polls every peer it can reach
  // (alive, both directions unsevered) and a strict majority of the CLUSTER
  // must corroborate that it, too, cannot reach the suspect. Reaching a
  // majority is not enough on its own: under an asymmetric cut the bystander
  // links are whole, so BOTH sides of the cut reach a majority through them —
  // a connectivity-only vote would let an isolated-but-alive watcher steal a
  // healthy peer's zones (split brain). A peer's probe of the suspect
  // succeeds iff the suspect is up and the link is whole both ways; a
  // genuinely crashed node answers nobody, so for pure crash windows this is
  // exactly the classic reach-majority vote. A minority or even split still
  // cannot promote — its requests park with kNoQuorum and drain at heal.
  int reach = 0;
  int corroborate = 0;
  for (NodeId m = 0; m < count; ++m) {
    if (f.crash_release(m, now) != 0 || health_[static_cast<std::size_t>(m)].confirmed) {
      continue;
    }
    if (m != watcher && (f.severed(watcher, m, now) || f.severed(m, watcher, now))) continue;
    ++reach;
    const bool probe_ok = f.crash_release(dead, now) == 0 && !f.severed(m, dead, now) &&
                          !f.severed(dead, m, now);
    if (!probe_ok) ++corroborate;
  }
  if (reach * 2 <= count) return false;
  if (corroborate * 2 <= count) return false;
  // (2) Chain acknowledgement: a majority of the dead home's replica chain —
  // the nodes holding the mirrored state — must themselves have lost contact
  // with it. One same-side chain member that still hears the "dead" node
  // vetoes a chain of depth <= 2.
  std::uint32_t votes = 0;
  for (std::uint32_t i = 0; i < chain_depth_; ++i) {
    const NodeId m = chain_member(dead, i);
    if (f.crash_release(m, now) != 0 || health_[static_cast<std::size_t>(m)].confirmed) {
      continue;
    }
    if (m != watcher && (f.severed(watcher, m, now) || f.severed(m, watcher, now))) continue;
    if (now - heard_[static_cast<std::size_t>(m)][static_cast<std::size_t>(dead)] <
        f.suspect_after) {
      continue;  // this chain member still hears the suspect
    }
    ++votes;
  }
  return votes * 2 > chain_depth_;
}

void HaManager::confirm_death(NodeId dead, NodeId watcher, Time silence) {
  Health& h = health_[static_cast<std::size_t>(dead)];
  if (h.confirmed) return;
  auto& eng = cluster_->engine();
  const Time now = eng.now();
  // Quorum gate (trivially true without partitions): an unconfirmable death
  // stays suspected and is re-judged at the next watcher tick.
  if (!promotion_quorum(dead, watcher, now)) return;
  h.confirmed = true;
  promoted_for_ = dead;
  ++promotions_;
  ++epoch_;
  // Epoch fencing: the bump propagates to the promoting side only. Nodes
  // severed from the watcher keep their stale view — their fenced wire
  // messages are NACKed until the heal catch-up (docs/PARTITIONS.md).
  if (!partitions_cfg_) {
    for (std::uint64_t& e : node_epoch_) e = epoch_;
  } else {
    const auto& f = cluster_->params().fault;
    const int count = cluster_->node_count();
    for (NodeId m = 0; m < count; ++m) {
      if (m == watcher || (!f.severed(watcher, m, now) && !f.severed(m, watcher, now))) {
        node_epoch_[static_cast<std::size_t>(m)] = epoch_;
      }
    }
  }

  cluster_->trace_event(watcher, TraceKind::kHaDeadConfirmed, dead,
                        static_cast<std::int64_t>(silence / kMicrosecond));

  // Heat-driven migration overrides pointing AT the dead node revert first
  // (each page re-realizes at its fallback home), so the zone failover below
  // never routes a page to a cleared-but-dead override target.
  dsm_->on_node_dead(dead);

  // Every zone currently homed at the dead node is re-elected to the first
  // live member of the dead home's chain. The incremental reverse index
  // hands us the zones directly — in the ascending zone order the old
  // all-zones scan produced, keeping the event sequence hash-deterministic.
  std::vector<NodeId> zones = home_zones_[static_cast<std::size_t>(dead)];
  home_zones_[static_cast<std::size_t>(dead)].clear();

  NodeId first_home = watcher;  // epoch-bump track when no zone moves
  std::vector<NodeId> new_homes(zones.size());
  for (std::size_t i = 0; i < zones.size(); ++i) {
    new_homes[i] = elect_home(zones[i], dead, watcher, now);
    if (i == 0) first_home = new_homes[0];
  }

  cluster_->trace_event(first_home, TraceKind::kEpochBump,
                        static_cast<std::int64_t>(epoch_), dead);

  for (std::size_t i = 0; i < zones.size(); ++i) {
    // Route the zone at its new home from this instant: stale presence is
    // impossible to *hold* (the routing table is the single source of truth;
    // java_ic checks and java_pf re-protection resolve through it on the
    // next consistency action) and stale *requests* are NACKed by the
    // handlers.
    zone_home_[static_cast<std::size_t>(zones[i])] = new_homes[i];
    insert_sorted(home_zones_[static_cast<std::size_t>(new_homes[i])], zones[i]);
    move_zone(zones[i], dead, new_homes[i]);
  }

  if (!zones.empty() && h.crash_started != 0) {
    // crash_started == 0 means a partition-confirmed node: it never crashed,
    // so there is no crash-to-promotion latency to record.
    cluster_->node(first_home)
        .stats()
        .record(Hist::kRecoveryLatency, static_cast<std::uint64_t>(now - h.crash_started));
  }

  // Wake every caller still parked on the dead node with a typed failure so
  // it re-resolves under the new epoch. Runs last: by the time a woken fiber
  // retries, the routing table above is already in place.
  cluster_->ha_fail_traffic_to(dead);
}

void HaManager::move_zone(NodeId zone, NodeId dead, NodeId new_home) {
  // --- checkpoint realization ---------------------------------------------
  // The incremental replication stream has been mirroring the dying home's
  // state all along (note_checkpoint accounts it — piggybacked or as real
  // chain messages); the simulator realizes the mirrored copy here, in three
  // steps that keep the new home's own unflushed working-memory
  // modifications intact.
  const dsm::Layout& layout = dsm_->layout();
  dsm::PageId first = 0;
  dsm::PageId last = 0;
  zone_pages(zone, &first, &last);
  const dsm::Gva zbegin = layout.zone_begin(zone);
  const dsm::Gva zend = layout.zone_end(zone);
  const std::size_t zbytes = static_cast<std::size_t>(zend - zbegin);
  // The dying home's arena holds the zone's authoritative bytes (for a zone
  // that had moved before, the previous promotion copied them there). Only
  // the live prefix can differ from zero, so only it is mirrored.
  const std::size_t live = live_prefix(zone);
  dsm::NodeDsm& dnd = dsm_->node_dsm(dead);
  dsm::NodeDsm& bnd = dsm_->node_dsm(new_home);

  // (1) Extract the new home's pending java_pf diffs (cur vs twin) for
  //     cached pages of the zone — promote_to_home drops the twins below.
  struct SavedRun {
    dsm::Gva at;
    std::vector<std::byte> bytes;
  };
  std::vector<SavedRun> pending;
  const std::size_t page_bytes = layout.page_bytes();
  for (dsm::PageId p : bnd.cached_pages()) {
    if (p < first || p >= last || !bnd.has_twin(p)) continue;
    const std::byte* cur = bnd.page_ptr(p);
    const std::byte* tw = bnd.twin(p);
    std::size_t i = 0;
    while (i < page_bytes) {
      if (cur[i] == tw[i]) {
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      while (j < page_bytes && cur[j] != tw[j]) ++j;
      pending.push_back({layout.page_base(p) + i, std::vector<std::byte>(cur + i, cur + j)});
      i = j;
    }
  }

  // (2) Realize the mirror and take home authority. The pristine snapshot
  //     feeds the restart-side final-checkpoint diff (see on_restart).
  ZoneSnap& snap = zone_snaps_[static_cast<std::size_t>(zone)];
  snap.from = dead;
  insert_sorted(snap_zones_[static_cast<std::size_t>(dead)], zone);
  snap.bytes.assign(dnd.arena() + zbegin, dnd.arena() + zbegin + live);
  std::memcpy(bnd.arena() + zbegin, dnd.arena() + zbegin, live);
  bnd.promote_to_home(first, last);

  // (3) The new home's own unflushed modifications win over the mirrored
  //     base (they are exactly what its next updateMainMemory would apply).
  for (const SavedRun& r : pending) {
    std::memcpy(bnd.arena() + r.at, r.bytes.data(), r.bytes.size());
  }
  dsm_->replay_logged_writes(new_home, zbegin, zend);  // java_ic pending stores

  // Monitor tables of objects in the zone (and the applied-op-id set) move
  // with it.
  monitors_->fail_over_home(dead, new_home, static_cast<std::uint64_t>(zbegin),
                            static_cast<std::uint64_t>(zend));

  cluster_->trace_event(new_home, TraceKind::kHomePromoted, zone,
                        static_cast<std::int64_t>(zbytes));

  // Installing the final checkpoint delta occupies the new home's service
  // queue: requests against it serve after the install. Charged over the
  // zone's allocated bytes — the page frames themselves were already mirrored.
  const std::size_t used = dsm_->node_dsm(zone).allocated_bytes();
  if (used > 0) {
    cluster_->node(new_home).service_queue().reserve(cluster_->params().cpu.copy_cost(used));
  }

  cluster_->node(new_home).stats().add(Counter::kHaPromotions);
}

void HaManager::on_restart(const FaultWindow& c) {
  auto& eng = cluster_->engine();
  const Time now = eng.now();
  const NodeId n = c.node;
  cluster_->trace_event(n, TraceKind::kNodeRestart, static_cast<std::int64_t>(epoch_), 0);
  rejoin_node(n, now);
}

void HaManager::rejoin_node(NodeId n, Time now) {
  // A node that was confirmed dead rejoins even when it has no zone state to
  // fold back (a re-confirmed node's authority already lives elsewhere); an
  // unconfirmed restart only counts as a rejoin if a snapshot says otherwise.
  bool rejoined = health_[static_cast<std::size_t>(n)].confirmed;
  // Only the zones snapshotted from this node (reverse index, ascending zone
  // order like the old all-zones scan). An entry can be stale — the zone may
  // have moved on to yet another home since — hence the snap.from re-check.
  std::vector<NodeId> snapped;
  snapped.swap(snap_zones_[static_cast<std::size_t>(n)]);
  for (NodeId z : snapped) {
    ZoneSnap& snap = zone_snaps_[static_cast<std::size_t>(z)];
    if (snap.from != n) continue;
    // Final incremental checkpoint: stores by the node's own threads whose
    // compute was initiated before the crash can carry freeze-model
    // timestamps inside the window; diff the zone against the promotion-time
    // snapshot and fold the deltas into the current home. Under
    // data-race-free programs these bytes are disjoint from anything the new
    // home served in the meantime (the writers still hold their monitors).
    // The isolated or frozen node may have allocated during the window, so
    // the diff covers the live prefix as of now; the snapshot reads as zero
    // past its own length.
    const dsm::Layout& layout = dsm_->layout();
    dsm::PageId first = 0;
    dsm::PageId last = 0;
    zone_pages(z, &first, &last);
    const dsm::Gva zbegin = layout.zone_begin(z);
    const std::size_t zbytes = live_prefix(z);
    snap.bytes.resize(zbytes);  // zero-extends: the prefix only grows
    const std::size_t page_bytes = layout.page_bytes();
    dsm::NodeDsm& dnd = dsm_->node_dsm(n);
    dsm::NodeDsm& hnd = dsm_->node_dsm(zone_home_[static_cast<std::size_t>(z)]);
    const std::byte* cur = dnd.arena() + zbegin;
    const std::byte* base = snap.bytes.data();
    std::size_t i = 0;
    while (i < zbytes) {
      // Skipping a whole equal page skips only bytes the scan below would
      // skip one at a time, so the runs and their copies are unchanged.
      if ((i & (page_bytes - 1)) == 0 && std::memcmp(cur + i, base + i, page_bytes) == 0) {
        i += page_bytes;
        continue;
      }
      if (cur[i] == base[i]) {
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      while (j < zbytes && cur[j] != base[j]) ++j;
      std::memcpy(hnd.arena() + zbegin + i, cur + i, j - i);
      i = j;
    }
    snap.from = -1;
    snap.bytes.clear();
    snap.bytes.shrink_to_fit();

    // The node rejoins with no authority over this zone: it stays at the
    // elected home for the rest of the run and the restarted node's
    // pre-crash copies are stale — it resumes as a cacher and re-syncs on
    // demand through ordinary fetches.
    dnd.demote_home(first, last);
    rejoined = true;
  }
  if (rejoined) {
    cluster_->trace_event(n, TraceKind::kHaRejoined, static_cast<std::int64_t>(epoch_), 0);
  }

  // Fresh detector state: a later crash window on this node is a new,
  // independently detected failure.
  Health& h = health_[static_cast<std::size_t>(n)];
  h.last_heard = now;
  h.crash_started = 0;
  h.suspected = false;
  h.confirmed = false;
  if (partitions_cfg_) {
    // Re-arm every watcher's view of n so the pre-rejoin silence cannot
    // instantly re-confirm it.
    for (auto& row : heard_) row[static_cast<std::size_t>(n)] = now;
  }
}

void HaManager::on_partition(std::size_t idx, bool open) {
  auto& eng = cluster_->engine();
  const Time now = eng.now();
  const auto& f = cluster_->params().fault;
  const int count = cluster_->node_count();
  const cluster::PartitionWindow& w = f.partitions[idx];
  // Trace on the first in-range node of group_a (the window applies, so one
  // exists).
  NodeId tn = 0;
  for (NodeId a : w.group_a) {
    if (a < count) {
      tn = a;
      break;
    }
  }
  cluster_->trace_event(tn, TraceKind::kHaPartition, open ? 1 : 0,
                        static_cast<std::int64_t>(idx));
  if (open) return;

  // --- heal ----------------------------------------------------------------
  // (1) Nodes the cut made "dead" are actually alive: fold their
  // post-promotion deltas into the current homes (final-checkpoint replay,
  // same machinery as a crash restart), demote their stale authority and
  // reset their detector state. A node still inside a crash window is
  // skipped — its own on_restart handles it at the window end.
  for (NodeId n = 0; n < count; ++n) {
    Health& h = health_[static_cast<std::size_t>(n)];
    if (f.crash_release(n, now) != 0) continue;
    if (h.confirmed && h.crash_started == 0) {
      rejoin_node(n, now);
    } else if (h.suspected && !h.confirmed) {
      // A suspicion created only by the cut heals with it.
      h.suspected = false;
    }
  }
  // (2) Detector re-arm: nothing crossed the cut, so every stale view would
  // otherwise instantly re-suspect a healthy peer. A node inside a crash
  // window is NOT re-armed — it sends no heartbeat at the heal, and bumping
  // its column would mask a real death that overlaps the partition.
  for (NodeId n = 0; n < count; ++n) {
    if (f.crash_release(n, now) != 0) continue;
    for (auto& row : heard_) {
      Time& t = row[static_cast<std::size_t>(n)];
      if (t < now) t = now;
    }
  }
  // (3) Epoch catch-up: the healed side adopts the promoting side's routing
  // epoch, un-fencing its traffic.
  for (std::uint64_t& e : node_epoch_) e = epoch_;
}

Time HaManager::retry_hold(NodeId target, Time now) const {
  if (health_[static_cast<std::size_t>(target)].confirmed) return 0;
  const auto& f = cluster_->params().fault;
  const Time release = f.crash_release(target, now);
  if (release == 0) return 0;
  // The target is inside a crash window but the detector has not confirmed it
  // yet: re-routing would be premature (there is no new home), and retrying
  // immediately burns whole-call budgets against a black hole. Hold until the
  // detector can have confirmed (crash start + confirm_after, plus a tick of
  // watcher slack) or the restart, whichever comes first.
  Time confirmed_by = release;
  for (const FaultWindow& c : f.crashes) {
    if (c.node == target && c.covers(now)) {
      confirmed_by = c.start + f.confirm_after + 2 * f.hb_interval;
      break;
    }
  }
  return confirmed_by < release ? confirmed_by : release;
}

// ---------------------------------------------------------------------------
// Checkpoint traffic (docs/RECOVERY.md §checkpoint bandwidth)

void HaManager::note_checkpoint(NodeId home, std::uint64_t bytes) {
  if (!stream_enabled_) {
    // Classic piggyback accounting: the checkpoint rides the update/ack
    // traffic the consistency protocol already generates; only the byte
    // count (and one trace event toward the first chain member) is modeled.
    cluster_->node(home).stats().add(Counter::kHaCheckpointBytes, bytes);
    cluster_->trace_event(home, TraceKind::kCheckpoint, backup_of(home),
                          static_cast<std::int64_t>(bytes));
    return;
  }
  if (chain_depth_ == 0) return;
  send_checkpoint(home, home, 0, static_cast<std::uint32_t>(bytes));
}

void HaManager::send_checkpoint(NodeId from, NodeId origin, std::uint32_t hop,
                                std::uint32_t delta_bytes) {
  const NodeId dest = chain_member(origin, hop);
  Buffer msg(kCkptHeaderBytes + delta_bytes);
  msg.put<std::uint32_t>(static_cast<std::uint32_t>(origin));
  msg.put<std::uint32_t>(hop);
  msg.put<std::uint32_t>(delta_bytes);
  msg.put<std::uint32_t>(0);  // reserved
  // The delta rides as payload padding so the bandwidth model and the fault
  // injector charge/see the real checkpoint size.
  static constexpr std::byte kZeros[256] = {};
  for (std::size_t left = delta_bytes; left > 0;) {
    const std::size_t chunk = left < sizeof(kZeros) ? left : sizeof(kZeros);
    msg.put_bytes(kZeros, chunk);
    left -= chunk;
  }
  const std::uint64_t size = msg.size();

  // Invariant pinned by tests and the acceptance criteria: the
  // ha_checkpoint_bytes counter equals the sum of traced checkpoint message
  // sizes (one kCheckpoint event per transmitted message).
  Stats& s = cluster_->node(from).stats();
  s.add(Counter::kHaCheckpointBytes, size);
  s.add(Counter::kHaCheckpointMsgs);
  cluster_->trace_event(from, TraceKind::kCheckpoint, dest, static_cast<std::int64_t>(size));

  // ckpt_bw pacing: consecutive checkpoints from one node serialize through
  // its replication-stream budget; the message departs when the budget
  // frees. Deterministic: pure arithmetic on virtual time.
  Time depart_delay = 0;
  const std::uint64_t bw = cluster_->params().fault.ckpt_bw;
  if (bw != 0) {
    const Time now = cluster_->engine().now();
    Time& busy = ckpt_busy_until_[static_cast<std::size_t>(from)];
    const Time start = busy > now ? busy : now;
    depart_delay = start - now;
    const Time tx = static_cast<Time>(size * 1'000'000'000'000ULL / bw);  // ps on the budget
    busy = start + tx;
  }
  if (depart_delay == 0) {
    cluster_->send(from, dest, svc::kHaCheckpoint, std::move(msg));
  } else {
    cluster_->send_after(depart_delay, from, dest, svc::kHaCheckpoint, std::move(msg));
  }
}

void HaManager::handle_checkpoint(cluster::Incoming& in, NodeId self) {
  const auto origin = static_cast<NodeId>(in.reader.get<std::uint32_t>());
  const auto hop = in.reader.get<std::uint32_t>();
  const auto delta_bytes = in.reader.get<std::uint32_t>();
  (void)in.reader.get<std::uint32_t>();  // reserved
  const std::uint64_t size = kCkptHeaderBytes + delta_bytes;
  // Absorbing the delta into the mirror occupies the chain member's service
  // queue like any other apply.
  cluster_->node(self).extend_service(cluster_->params().cpu.copy_cost(delta_bytes));
  cluster_->trace_event(self, TraceKind::kCheckpointApplied, origin,
                        static_cast<std::int64_t>(size));
  // Chain order: member i forwards to member i+1 until the chain is full.
  if (hop + 1 < chain_depth_) send_checkpoint(self, origin, hop + 1, delta_bytes);
}

}  // namespace hyp::ha
