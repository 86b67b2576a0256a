// The callback surface the high-availability subsystem (src/ha) installs on
// the cluster transport and the DSM/monitor layers.
//
// The dependency points downward only: cluster/dsm/hyperion know this tiny
// interface, src/ha implements it. With no hooks installed (the default, and
// the only possibility when the fault profile schedules no crash windows)
// every HA branch is a null-pointer test and the event sequence is
// bit-identical to the goldens (docs/RECOVERY.md).
#pragma once

#include <cstdint>

#include "cluster/params.hpp"

namespace hyp::cluster {

struct HaHooks {
  virtual ~HaHooks() = default;

  // Current owner of home zone `zone` (identity mapping until a promotion
  // moves the dead node's zone to its ring successor).
  virtual NodeId home_node(int zone) const = 0;

  // True from the instant the failure detector confirmed `node` dead until
  // the moment it rejoins after its restart.
  virtual bool confirmed_dead(NodeId node) const = 0;

  // Cluster-wide routing epoch; bumped on every promotion. Stale
  // presence/routing decisions made under an older epoch must re-resolve.
  virtual std::uint64_t epoch() const = 0;

  // Absolute virtual time until which a failing-over caller should hold
  // (sleep) before re-attempting an RPC whose last attempt failed against
  // `target`; any value <= now means "retry immediately". Returns a future
  // time while `target` is inside a crash window but not yet confirmed dead
  // (re-routing would be premature; the detector needs silence time).
  virtual Time retry_hold(NodeId target, Time now) const = 0;

  // Accounts home-state replication traffic (incremental checkpoints from
  // home `home` to its chain backups). In the classic piggyback mode the
  // bytes land in kHaCheckpointBytes directly; with the modeled checkpoint
  // stream enabled (replicas > 1) this emits real cluster messages down the
  // chain instead (docs/RECOVERY.md).
  virtual void note_checkpoint(NodeId home, std::uint64_t bytes) = 0;

  // Replication depth K (FaultProfile::replicas): each home's state is held
  // by its K ring successors. 1 = the classic single-failure model. The DSM
  // uses this to keep update batches zone-pure when K > 1 (two zones homed
  // at one node today may be re-elected to *different* nodes tomorrow).
  virtual std::uint32_t replicas() const = 0;

  // --- partition tolerance (docs/PARTITIONS.md) ----------------------------
  // The routing epoch as observed by `node`: epoch bumps propagate only to
  // the side of a partition that performed the promotion, so a stale home
  // keeps an older view until the heal catch-up. This is the fencing token
  // the DSM/monitor wire formats carry when partitions are configured.
  virtual std::uint64_t node_epoch(NodeId node) const = 0;

  // True while some watcher suspects `node` silent but has not confirmed it
  // dead — the window during which reads of its zones may be served by
  // quorum from the chain backups instead of waiting out the detector.
  virtual bool suspected(NodeId node) const = 0;

  // The i-th chain backup (0 <= i < replicas()) holding `home`'s state.
  virtual NodeId chain_backup(NodeId home, std::uint32_t i) const = 0;
};

}  // namespace hyp::cluster
