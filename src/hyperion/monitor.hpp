// Object monitors (Java `synchronized`, wait/notify).
//
// Every shared object has a monitor managed at the object's home node,
// matching Hyperion's centralized object management: entering a monitor from
// a remote node is an RPC to the home, sent through DsmSystem::call_home like
// a page fetch (the monitor lives on its object's page and moves with it);
// the home's manager is an event-driven state machine (handlers never block)
// that queues contenders FIFO and grants by deferred reply. Local threads use
// the same state machine directly, paying a cycles-only cost.
//
// The memory subsystem's consistency hooks are driven from the caller side:
//   enter: (grant) -> DsmSystem::on_acquire  (flush + invalidate)
//   exit:  DsmSystem::on_release (flush) -> release message
//   wait:  release-side flush, then blocks; acquire effects after re-grant
// This is the §3.1 protocol skeleton shared by java_ic and java_pf.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/id_window.hpp"
#include "dsm/dsm.hpp"

namespace hyp::hyperion {

namespace svc {
inline constexpr cluster::ServiceId kMonitorEnter = 20;
inline constexpr cluster::ServiceId kMonitorExit = 21;
inline constexpr cluster::ServiceId kMonitorWait = 22;
inline constexpr cluster::ServiceId kMonitorNotify = 23;
}  // namespace svc

class MonitorSubsystem {
 public:
  MonitorSubsystem(cluster::Cluster* cluster, dsm::DsmSystem* dsm);
  MonitorSubsystem(const MonitorSubsystem&) = delete;
  MonitorSubsystem& operator=(const MonitorSubsystem&) = delete;

  // Blocking caller-side operations (run on Java-thread fibers). `obj` is
  // the object's global address; its monitor lives at the object's home.
  void enter(dsm::ThreadCtx& t, dsm::Gva obj);
  void exit(dsm::ThreadCtx& t, dsm::Gva obj);
  // Java Object.wait(): caller must hold the monitor (any depth; fully
  // released while waiting, restored on return).
  void wait(dsm::ThreadCtx& t, dsm::Gva obj);
  void notify_one(dsm::ThreadCtx& t, dsm::Gva obj);
  void notify_all(dsm::ThreadCtx& t, dsm::Gva obj);

  // --- high availability (docs/RECOVERY.md) --------------------------------
  // Monitor homes resolve, like pages, through DsmSystem: every remote op
  // goes through DsmSystem::call_home (re-resolution, NACK, epoch fencing,
  // parking) and every home-side check through its fenced/nack_stale_home,
  // with the HA and fencing settings read from there. A retry carries the
  // SAME op id, so the new home's reattach/dedup absorbs a previously
  // applied attempt.
  //
  // Moves the monitors of objects in the global-address range [zbegin, zend)
  // from the dead node's table to the backup's (the simulator realizes the
  // checkpointed state the incremental replication stream has been
  // mirroring). Called through DsmSystem's home-moved hook once per home
  // move: a re-elected zone (with replicas > 1 the dead node's zones may be
  // promoted to *different* chain members), a migrated page or its revert,
  // so the move is range-filtered rather than wholesale. The dead home's
  // applied-op-id set is copied (not cleared) into the backup's so a retry
  // of an op the dead home had applied re-attaches instead of
  // double-applying. Local contenders' fiber pointers stay valid: fibers
  // survive a crash under the thread-checkpoint model.
  void fail_over_home(cluster::NodeId dead, cluster::NodeId backup,
                      std::uint64_t zbegin, std::uint64_t zend);

 private:
  // A thread waiting for a grant: either a local fiber to unpark or a remote
  // caller to answer by token.
  struct Contender {
    std::uint64_t uid;   // thread uid (becomes the owner on grant)
    bool local;
    sim::Fiber* fiber = nullptr;       // local: fiber to unpark on grant
    bool* granted_flag = nullptr;      // local: set true on grant
    cluster::NodeId from = -1;         // contender's node (grants defer while it
                                       // is inside a crash window)
    std::uint64_t reply_token = 0;     // remote
    std::uint32_t grant_depth = 1;     // depth restored on grant (wait=saved)
  };

  struct MonitorState {
    std::uint64_t owner_uid = 0;  // 0 = free
    std::uint32_t depth = 0;
    std::deque<Contender> queue;     // FIFO enter queue
    std::vector<Contender> wait_set; // waiting for notify
  };

  // State-machine transitions (run at the home node).
  void do_enter(cluster::NodeId home, dsm::Gva obj, Contender contender);
  void do_exit(cluster::NodeId home, dsm::Gva obj, std::uint64_t uid);
  void do_wait(cluster::NodeId home, dsm::Gva obj, Contender contender);
  void do_notify(cluster::NodeId home, dsm::Gva obj, std::uint64_t uid, bool all);
  void grant_next_if_free(cluster::NodeId home, MonitorState& m);
  void grant(cluster::NodeId home, MonitorState& m, Contender contender);

  // RPC handlers (home side).
  void handle_enter(cluster::Incoming& in, cluster::NodeId self);
  void handle_exit(cluster::Incoming& in, cluster::NodeId self);
  void handle_wait(cluster::Incoming& in, cluster::NodeId self);
  void handle_notify(cluster::Incoming& in, cluster::NodeId self);
  // Every handler's prologue: reads (obj, uid), refuses a fenced or
  // stale-home request (returns false; the NACK is sent), then dedups the op
  // id and charges the manager's service time.
  struct Request {
    dsm::Gva obj = 0;
    std::uint64_t uid = 0;
    bool retry = false;  // the op was already applied here (op_already_applied)
  };
  bool admit(cluster::Incoming& in, cluster::NodeId self, cluster::ServiceId service,
             Request* req);

  MonitorState& state(cluster::NodeId home, dsm::Gva obj);

  // --- transport-failure degradation (docs/FAULTS.md) -----------------------
  //
  // Monitor transitions are NOT naturally idempotent (a doubled exit corrupts
  // the depth count), so under an active lossy transport every remote op
  // carries a cluster-unique op id; the home records applied ids and treats a
  // retried-but-applied op as "re-attach": re-grant to the owner, repoint a
  // queued/waiting contender's reply coordinates at the live call, or re-ack.
  // Quiet networks keep the historical wire format byte-for-byte (the op id
  // is only appended when Cluster::transport_active()).
  //
  // Sends one op to the monitor's home through DsmSystem::call_home;
  // `all_flag` >= 0 appends the notify one/all byte.
  void call_home(dsm::ThreadCtx& t, cluster::NodeId home, cluster::ServiceId service,
                 dsm::Gva obj, int all_flag = -1);
  // Parses the op id (lossy runs only) and dedups it. Returns true when the
  // message is a retry of an op the home has already applied.
  bool op_already_applied(cluster::Incoming& in, cluster::NodeId self);
  void reattach_enter(cluster::Incoming& in, cluster::NodeId self, dsm::Gva obj,
                      std::uint64_t uid);
  void reattach_wait(cluster::Incoming& in, cluster::NodeId self, dsm::Gva obj,
                     std::uint64_t uid);

  cluster::Cluster* cluster_;
  dsm::DsmSystem* dsm_;
  // monitors_[home] maps object address -> state.
  std::vector<std::map<dsm::Gva, MonitorState>> monitors_;
  // Lossy-transport idempotence state (empty on quiet networks): the next
  // cluster-unique op id, and per home node the set of applied op ids.
  std::uint64_t next_op_id_ = 1;
  std::vector<IdWindow> applied_ops_;

  // Cycle costs for the manager's bookkeeping (charged to the home service
  // for remote callers, to the caller's clock for local ones).
  static constexpr std::uint64_t kManagerCycles = 60;
  static constexpr std::uint64_t kLocalLockCycles = 40;
};

}  // namespace hyp::hyperion
