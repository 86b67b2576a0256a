// High availability: failure detection, home-state replication, re-election.
//
// The paper's model is a dedicated, lossless cluster; this subsystem asks the
// complementary question the roadmap leaves open: what must a *centralized*
// home-based protocol add to survive the loss of home nodes? The answer
// implemented here (docs/RECOVERY.md):
//
//   1. Failure detection — every node heartbeats on an out-of-band management
//      path each `hb_interval`; each node runs watcher duty over its K ring
//      predecessors (K = FaultProfile::replicas), suspecting a silent one
//      after `suspect_after` and confirming it dead after `confirm_after`.
//      All timeouts are virtual-time constants, so detection latency is
//      deterministic.
//   2. Replicated home state — every zone currently homed at node N has K
//      chain backups: N's ring successors C(N, i) = (N+1+i) mod n, in chain
//      order. Incremental checkpoints either piggyback on the update/ack
//      traffic the consistency protocol already generates (the classic
//      accounting via note_checkpoint -> kHaCheckpointBytes) or — when the
//      stream is given its own identity (replicas > 1 or ckpt_bw set) —
//      flow down the chain as *real cluster messages* on service
//      svc::kHaCheckpoint: traced, faultable, byte-charged by the network
//      model and paced by the ckpt_bw bandwidth budget. The simulator
//      realizes the mirrored state at promotion time, which is
//      observationally equivalent to a synchronous mirror (zero loss).
//   3. Home re-election — on confirmed death of a home, every zone it owned
//      is promoted to the *first live member of the home's chain*:
//      cluster-wide epoch bump, the HA routing table repoints each zone,
//      in-flight RPCs against the dead node fail over through the
//      typed-error retry paths (same op id => the monitor reattach/dedup
//      machinery absorbs previously applied attempts), and stale-home
//      stragglers are NACKed. Multiple (sequential or overlapping) crash
//      windows are tolerated as long as no zone loses all K+1 copies; a run
//      that would lose a zone fails fast with a diagnosable error instead of
//      hanging or computing a wrong answer.
//   4. Restart/rejoin — at each crash window's end the node returns with no
//      home authority (zones it owned stay at their new homes for the rest
//      of the run) and resumes as a cacher; its threads survive under the
//      thread-checkpoint model. Its detector state is reset, so a later
//      crash window on the same node is a fresh failure.
//   5. Partition tolerance (docs/PARTITIONS.md) — when the profile schedules
//      partition windows the detector runs per-watcher heartbeat views (a
//      cut watcher goes silent on its side only), promotions demand a quorum
//      (the watcher must reach a strict majority of the live cluster AND a
//      majority of the dead home's chain must ack the silence), epoch bumps
//      propagate only to the promoting side so every fenced wire message
//      from the stale side is NACKed, and the heal instant performs epoch
//      catch-up plus checkpoint-replay rejoin of partition-"dead" nodes.
//      Minority-side requests park on RpcError::kNoQuorum and drain at heal.
//
// With replicas=1 (the default) the placement, detection and promotion paths
// reduce exactly to the former single-failure ring-successor model — the
// kill-and-recover golden (tests/goldens/recovery_golden.txt) is byte-
// identical. When the fault profile schedules no crash window the VM never
// constructs a HaManager and every hook in cluster/dsm/hyperion is a
// null-pointer test — the event sequence stays bit-identical to the goldens.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/ha_hooks.hpp"
#include "dsm/dsm.hpp"
#include "hyperion/monitor.hpp"

namespace hyp::ha {

// RPC service id used by the modeled checkpoint stream (registered on every
// node only when the stream is enabled; see HaManager::stream_enabled()).
namespace svc {
inline constexpr cluster::ServiceId kHaCheckpoint = 30;
}  // namespace svc

class HaManager final : public cluster::HaHooks {
 public:
  HaManager(cluster::Cluster* cluster, dsm::DsmSystem* dsm,
            hyperion::MonitorSubsystem* monitors);
  HaManager(const HaManager&) = delete;
  HaManager& operator=(const HaManager&) = delete;

  // Fails fast on statically unrecoverable crash schedules (a zone whose
  // home and all chain backups are down at once), posts the heartbeat tick
  // chains, every applicable crash/restart event and every applicable
  // partition open/heal event, and registers the checkpoint-stream service
  // when the stream is enabled. Call once, before Cluster::run(). (Profile
  // *validity* — window shapes, detector tuning, partition groups — is
  // enforced at parse time in cluster/params.cpp.)
  void start();
  // Ends the self-chaining detector ticks so the engine can quiesce. Called
  // when the Java main thread finishes (HyperionVM::run_main).
  void stop();

  // Deterministic chain placement: member i of node n's backup chain is its
  // (i+1)-th ring successor. chain_depth() clamps replicas to the nodes
  // actually available.
  cluster::NodeId chain_member(cluster::NodeId n, std::uint32_t i) const {
    const int count = cluster_->node_count();
    return static_cast<cluster::NodeId>((n + 1 + static_cast<int>(i)) % count);
  }
  std::uint32_t chain_depth() const { return chain_depth_; }
  // The first chain member — the classic single-failure backup placement.
  cluster::NodeId backup_of(cluster::NodeId n) const { return chain_member(n, 0); }
  // True when checkpoints travel as real cluster messages instead of
  // piggyback accounting (replicas > 1 or a ckpt_bw budget was given).
  bool stream_enabled() const { return stream_enabled_; }

  // --- cluster::HaHooks ----------------------------------------------------
  cluster::NodeId home_node(int zone) const override {
    return zone_home_[static_cast<std::size_t>(zone)];
  }
  bool confirmed_dead(cluster::NodeId node) const override {
    return health_[static_cast<std::size_t>(node)].confirmed;
  }
  std::uint64_t epoch() const override { return epoch_; }
  Time retry_hold(cluster::NodeId target, Time now) const override;
  void note_checkpoint(cluster::NodeId home, std::uint64_t bytes) override;
  std::uint32_t replicas() const override { return chain_depth_; }
  std::uint64_t node_epoch(cluster::NodeId node) const override {
    return node_epoch_[static_cast<std::size_t>(node)];
  }
  bool suspected(cluster::NodeId node) const override {
    const Health& h = health_[static_cast<std::size_t>(node)];
    return h.suspected && !h.confirmed;
  }
  cluster::NodeId chain_backup(cluster::NodeId home, std::uint32_t i) const override {
    return chain_member(home, i);
  }

  // --- introspection (tests) ----------------------------------------------
  bool promoted() const { return promotions_ != 0; }
  // The dead node of the most recent confirmed failure; -1 = none yet.
  cluster::NodeId promoted_for() const { return promoted_for_; }
  std::uint64_t promotions() const { return promotions_; }

 private:
  struct Health {
    Time last_heard = 0;   // virtual time of the last heartbeat received
    Time crash_started = 0;  // start of the current crash window (0 = alive)
    bool suspected = false;
    bool confirmed = false;
  };

  // Per-zone snapshot of the zone's live prefix (see live_prefix), taken at
  // promotion time from the dying home's arena; the restart event diffs
  // against it to realize the *final* checkpoint (see on_restart). `from` is
  // the node the zone moved away from.
  struct ZoneSnap {
    cluster::NodeId from = -1;
    std::vector<std::byte> bytes;
  };

  // One self-chaining detector tick per node: emit the heartbeat (if alive),
  // run watcher duty over the K watched ring predecessors.
  void tick(cluster::NodeId n);
  // Coalesced detector (node_count >= FaultProfile::hb_coalesce): ONE
  // self-chaining sweep event per hb_interval ticks every node in ascending
  // id order — the exact order the per-node chains fire in (they are posted,
  // and so seq-ordered, ascending at every interval) — so the side effects
  // are identical while the event heap carries O(1) detector events per
  // interval instead of O(n).
  void sweep();
  // The shared per-node tick body (heartbeat + watcher duty, no re-post).
  void tick_node(cluster::NodeId n, Time now, const cluster::FaultProfile& f);
  void on_crash(const cluster::FaultWindow& c);
  void on_restart(const cluster::FaultWindow& c);
  // Partition window `idx` opening (open=true) or healing. The heal performs
  // epoch catch-up, checkpoint-replay rejoin of partition-confirmed nodes
  // that are actually alive, and a detector re-arm.
  void on_partition(std::size_t idx, bool open);
  // The rejoin body shared by crash restarts and partition heals: fold the
  // node's post-snapshot deltas into the current homes, demote its stale
  // authority, reset its detector state.
  void rejoin_node(cluster::NodeId n, Time now);
  // Confirmed death of `dead`: epoch bump, re-election of every zone homed
  // there to the first live chain member, checkpoint realization, in-flight
  // traffic failover.
  void confirm_death(cluster::NodeId dead, cluster::NodeId watcher, Time silence);
  // Quorum gate for confirm_death under partitions: the watcher must reach a
  // strict majority of the live cluster (no minority-side promotions) and a
  // majority of the dead home's chain members must themselves have lost
  // contact with it. Trivially true when no partitions are configured — the
  // crash-only recovery goldens stay byte-identical.
  bool promotion_quorum(cluster::NodeId dead, cluster::NodeId watcher, Time now) const;
  // First live member of `dead`'s chain reachable from the promoting
  // watcher; fails fast (diagnosable HYP_PANIC) when the zone has lost all
  // K+1 copies.
  cluster::NodeId elect_home(cluster::NodeId zone, cluster::NodeId dead,
                             cluster::NodeId watcher, Time now) const;
  // Moves zone `zone` from dying home `dead` to `new_home`: realizes the
  // mirrored bytes, transfers home authority + monitor tables, charges the
  // final-checkpoint install on the new home's service queue.
  void move_zone(cluster::NodeId zone, cluster::NodeId dead, cluster::NodeId new_home);
  // Zone page range of `zone` as [first, last).
  void zone_pages(cluster::NodeId zone, dsm::PageId* first, dsm::PageId* last) const;
  // The zone's allocated bytes rounded up to whole pages. Nothing is ever
  // written past it, so failover copies and diffs only this prefix.
  std::size_t live_prefix(cluster::NodeId zone) const;
  // Emits (or forwards) one checkpoint message of the modeled stream:
  // `from` -> chain_member(origin, hop), paced by the ckpt_bw budget.
  void send_checkpoint(cluster::NodeId from, cluster::NodeId origin, std::uint32_t hop,
                       std::uint32_t delta_bytes);
  void handle_checkpoint(cluster::Incoming& in, cluster::NodeId self);

  cluster::Cluster* cluster_;
  dsm::DsmSystem* dsm_;
  hyperion::MonitorSubsystem* monitors_;
  std::vector<cluster::NodeId> zone_home_;  // routing table (identity until promotion)
  // Incremental reverse indexes so re-election and restart never scan all
  // zones: home_zones_[n] = zones currently homed at n; snap_zones_[n] =
  // zones whose promotion-time snapshot was taken from n. Both kept in
  // ascending zone order — the order the old 0..n-1 full scans visited.
  std::vector<std::vector<cluster::NodeId>> home_zones_;
  std::vector<std::vector<cluster::NodeId>> snap_zones_;
  std::vector<Health> health_;
  std::vector<ZoneSnap> zone_snaps_;  // indexed by zone
  std::uint32_t chain_depth_ = 1;     // min(replicas, node_count - 1)
  bool stream_enabled_ = false;
  // True when the profile schedules partition windows: per-watcher heartbeat
  // views, quorum-gated promotion and per-node epoch propagation engage.
  // False keeps every detector/promotion path byte-identical to the
  // crash-only model the recovery goldens pin.
  bool partitions_cfg_ = false;
  // heard_[w][t]: the last virtual time watcher w received node t's
  // heartbeat (allocated only when partitions_cfg_ — a cut watcher's view
  // diverges from the global last_heard).
  std::vector<std::vector<Time>> heard_;
  // Per-node view of the routing epoch: promotions update only the nodes
  // reachable from the promoting watcher; heals catch everyone up. This is
  // the fencing token source (HaHooks::node_epoch).
  std::vector<std::uint64_t> node_epoch_;
  std::uint64_t epoch_ = 0;
  std::uint64_t promotions_ = 0;  // confirmed failures handled so far
  bool stopped_ = false;
  cluster::NodeId promoted_for_ = -1;  // most recent confirmed dead node
  // Per-node virtual time until which the checkpoint stream's bandwidth
  // budget is spoken for (ckpt_bw pacing; unused when ckpt_bw == 0).
  std::vector<Time> ckpt_busy_until_;
};

}  // namespace hyp::ha
