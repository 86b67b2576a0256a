#include "hyperion/monitor.hpp"

#include "common/assert.hpp"

namespace hyp::hyperion {

// Wire format: every monitor message starts (u64 obj, u64 uid); with epoch
// fencing on (partition windows scheduled) the caller's u64 epoch view
// follows; under an active lossy transport a u64 op id follows that
// (call_home/op_already_applied below); notify appends a one/all byte.
// Success replies are empty historically, the home's 8-byte epoch view under
// fencing; a 1-byte reply is always a NACK.

MonitorSubsystem::MonitorSubsystem(cluster::Cluster* cluster, dsm::DsmSystem* dsm)
    : cluster_(cluster),
      dsm_(dsm),
      monitors_(static_cast<std::size_t>(cluster->node_count())),
      applied_ops_(static_cast<std::size_t>(cluster->node_count())) {
  for (cluster::NodeId n = 0; n < cluster->node_count(); ++n) {
    auto& node = cluster_->node(n);
    node.register_service(svc::kMonitorEnter, "monitor_enter",
                          [this, n](cluster::Incoming& in) { handle_enter(in, n); });
    node.register_service(svc::kMonitorExit, "monitor_exit",
                          [this, n](cluster::Incoming& in) { handle_exit(in, n); });
    node.register_service(svc::kMonitorWait, "monitor_wait",
                          [this, n](cluster::Incoming& in) { handle_wait(in, n); });
    node.register_service(svc::kMonitorNotify, "monitor_notify",
                          [this, n](cluster::Incoming& in) { handle_notify(in, n); });
  }
}

// ---------------------------------------------------------------------------
// Transport-failure degradation (docs/FAULTS.md)

void MonitorSubsystem::call_home(dsm::ThreadCtx& t, cluster::NodeId home,
                                 cluster::ServiceId service, dsm::Gva obj, int all_flag) {
  // Every attempt carries the SAME op id, so whichever home finally applies
  // the op absorbs earlier attempts through its reattach/dedup machinery (a
  // previously applied enter/wait re-grants or repoints; exit/notify
  // re-ack). A NACKing home answers before it records the op id.
  const bool lossy = cluster_->transport_active();
  const std::uint64_t op = lossy ? next_op_id_++ : 0;
  const Buffer reply = dsm_->call_home(
      t, home, dsm_->layout().page_of(obj), service, /*ok_body_bytes=*/0,
      [&](std::uint64_t epoch) {
        Buffer b;
        b.put<std::uint64_t>(obj);
        b.put<std::uint64_t>(t.uid);
        if (dsm_->fencing()) b.put<std::uint64_t>(epoch);
        if (lossy) b.put<std::uint64_t>(op);
        if (all_flag >= 0) b.put<std::uint8_t>(static_cast<std::uint8_t>(all_flag));
        return b;
      },
      "monitor operation");
  HYP_CHECK(reply.empty());
}

bool MonitorSubsystem::op_already_applied(cluster::Incoming& in, cluster::NodeId self) {
  if (!cluster_->transport_active()) return false;
  const auto op = in.reader.get<std::uint64_t>();
  return !applied_ops_[static_cast<std::size_t>(self)].insert(op);
}

void MonitorSubsystem::reattach_enter(cluster::Incoming& in, cluster::NodeId self, dsm::Gva obj,
                                      std::uint64_t uid) {
  // The original enter was applied but its grant (or queue position) was cut
  // off from the caller; the caller is still parked in the retried call.
  MonitorState& m = state(self, obj);
  if (m.owner_uid == uid) {
    cluster_->reply(in, dsm_->stamped_reply(self));  // the lost grant, re-issued
    return;
  }
  for (Contender& c : m.queue) {
    if (!c.local && c.uid == uid) {
      c.from = in.from;
      c.reply_token = in.reply_token;  // grant will answer the live call
      return;
    }
  }
  HYP_PANIC("monitor enter retry from uid " + std::to_string(uid) +
            " found neither ownership nor a queued contender (home node " +
            std::to_string(self) + ")");
}

void MonitorSubsystem::reattach_wait(cluster::Incoming& in, cluster::NodeId self, dsm::Gva obj,
                                     std::uint64_t uid) {
  MonitorState& m = state(self, obj);
  if (m.owner_uid == uid) {
    cluster_->reply(in, dsm_->stamped_reply(self));  // notify + re-grant already happened
    return;
  }
  for (Contender& c : m.queue) {
    if (!c.local && c.uid == uid) {
      c.from = in.from;
      c.reply_token = in.reply_token;
      return;
    }
  }
  for (Contender& c : m.wait_set) {
    if (!c.local && c.uid == uid) {
      c.from = in.from;
      c.reply_token = in.reply_token;
      return;
    }
  }
  HYP_PANIC("monitor wait retry from uid " + std::to_string(uid) +
            " found no waiting contender (home node " + std::to_string(self) + ")");
}

MonitorSubsystem::MonitorState& MonitorSubsystem::state(cluster::NodeId home, dsm::Gva obj) {
  return monitors_[static_cast<std::size_t>(home)][obj];
}

// ---------------------------------------------------------------------------
// High availability (docs/RECOVERY.md)

void MonitorSubsystem::fail_over_home(cluster::NodeId dead, cluster::NodeId backup,
                                      std::uint64_t zbegin, std::uint64_t zend) {
  auto& src = monitors_[static_cast<std::size_t>(dead)];
  auto& dst = monitors_[static_cast<std::size_t>(backup)];
  // Range-filtered move: only this zone's objects follow the promotion (other
  // zones homed at `dead` may be elected to different chain members).
  for (auto it = src.lower_bound(static_cast<dsm::Gva>(zbegin)); it != src.end();) {
    if (it->first >= static_cast<dsm::Gva>(zend)) break;
    const bool fresh = dst.emplace(it->first, std::move(it->second)).second;
    HYP_CHECK_MSG(fresh, "monitor failover collision: backup already manages the object");
    it = src.erase(it);
  }
  // The dead home's applied op ids are unioned into the backup's (and kept:
  // another zone's promotion may still need them) so a retry of an op the
  // dead home had applied (but whose ack was lost) re-attaches at the backup
  // instead of double-applying.
  applied_ops_[static_cast<std::size_t>(backup)].merge(
      applied_ops_[static_cast<std::size_t>(dead)]);
}

// ---------------------------------------------------------------------------
// Caller side

void MonitorSubsystem::enter(dsm::ThreadCtx& t, dsm::Gva obj) {
  t.stats->add(Counter::kMonitorEnters);
  cluster_->trace_event(t.node, cluster::TraceKind::kMonitorEnter,
                        static_cast<std::int64_t>(obj), static_cast<std::int64_t>(t.uid));
  cluster::NodeId home = dsm_->effective_home_of(obj);
  // Acquire-wait observation: measured from after the thread's batched
  // compute is materialized (so pending cycles are not misattributed to lock
  // contention) until the grant arrives. Recording is pure accumulation plus
  // clock reads — attaching it cannot shift virtual time.
  Time requested_at;
  if (home == t.node) {
    t.clock.charge_cycles(kLocalLockCycles);
    t.clock.flush();
    // flush() parks this fiber; a heat migration can move the monitor away
    // meanwhile (an update handler fires it). Re-resolve, or the local path
    // below would mutate the stale map whose state already moved.
    if (dsm_->migrations_enabled()) home = dsm_->effective_home_of(obj);
  }
  if (home == t.node) {
    requested_at = cluster_->engine().now();
    bool granted = false;
    Contender c;
    c.uid = t.uid;
    c.local = true;
    c.fiber = sim::Engine::current()->current_fiber();
    c.granted_flag = &granted;
    c.from = t.node;  // the grant defers while this node is in a crash window
    do_enter(home, obj, std::move(c));
    while (!granted) sim::Engine::current()->park();
  } else {
    t.clock.flush();
    requested_at = cluster_->engine().now();
    call_home(t, home, svc::kMonitorEnter, obj);
  }
  const TimeDelta waited = cluster_->engine().now() - requested_at;
  t.stats->record(Hist::kMonitorAcquireWait, waited);
  cluster_->phase_add(t.node, obs::Phase::kBlockedMonitor, waited);
  cluster_->trace_event(t.node, cluster::TraceKind::kMonitorAcquired,
                        static_cast<std::int64_t>(obj), static_cast<std::int64_t>(t.uid));
  // Happens-before: the acquirer inherits the clock the last releaser left
  // on this monitor (the detector only accumulates; docs/RACES.md).
  if (t.race != nullptr) [[unlikely]] t.race->lock_acquire(t.race_tid, obj);
  dsm_->on_acquire(t);
}

void MonitorSubsystem::exit(dsm::ThreadCtx& t, dsm::Gva obj) {
  t.stats->add(Counter::kMonitorExits);
  cluster_->trace_event(t.node, cluster::TraceKind::kMonitorExit,
                        static_cast<std::int64_t>(obj), static_cast<std::int64_t>(t.uid));
  // Happens-before: publish this thread's clock on the monitor for the next
  // acquirer, then advance the epoch.
  if (t.race != nullptr) [[unlikely]] t.race->lock_release(t.race_tid, obj);
  // Release semantics: modifications must reach central memory before the
  // lock can be taken by anyone else (§3.1, updateMainMemory on exit).
  dsm_->on_release(t);
  cluster::NodeId home = dsm_->effective_home_of(obj);
  if (home == t.node) {
    t.clock.charge_cycles(kLocalLockCycles);
    t.clock.flush();
    // Same mid-flush migration hazard as enter(): re-resolve after parking.
    if (dsm_->migrations_enabled()) home = dsm_->effective_home_of(obj);
  }
  if (home == t.node) {
    do_exit(home, obj, t.uid);
  } else {
    call_home(t, home, svc::kMonitorExit, obj);
  }
}

void MonitorSubsystem::wait(dsm::ThreadCtx& t, dsm::Gva obj) {
  cluster_->trace_event(t.node, cluster::TraceKind::kMonitorWait,
                        static_cast<std::int64_t>(obj), static_cast<std::int64_t>(t.uid));
  // wait() is a release followed (after notify) by an acquire.
  if (t.race != nullptr) [[unlikely]] t.race->lock_release(t.race_tid, obj);
  dsm_->on_release(t);
  cluster::NodeId home = dsm_->effective_home_of(obj);
  // Object.wait is how every §4.1 application builds its barriers: the time
  // from release to re-grant is attributed to Phase::kBarrier.
  Time requested_at;
  if (home == t.node) {
    t.clock.charge_cycles(kLocalLockCycles);
    t.clock.flush();
    // Same mid-flush migration hazard as enter(): re-resolve after parking.
    if (dsm_->migrations_enabled()) home = dsm_->effective_home_of(obj);
  }
  if (home == t.node) {
    requested_at = cluster_->engine().now();
    bool granted = false;
    Contender c;
    c.uid = t.uid;
    c.local = true;
    c.fiber = sim::Engine::current()->current_fiber();
    c.granted_flag = &granted;
    c.from = t.node;  // the grant defers while this node is in a crash window
    do_wait(home, obj, std::move(c));
    while (!granted) sim::Engine::current()->park();
  } else {
    t.clock.flush();
    requested_at = cluster_->engine().now();
    call_home(t, home, svc::kMonitorWait, obj);  // answered after notify + re-grant
  }
  cluster_->phase_add(t.node, obs::Phase::kBarrier,
                      cluster_->engine().now() - requested_at);
  // Re-acquire side of wait(): inherit the notifier's released clock.
  if (t.race != nullptr) [[unlikely]] t.race->lock_acquire(t.race_tid, obj);
  dsm_->on_acquire(t);
}

void MonitorSubsystem::notify_one(dsm::ThreadCtx& t, dsm::Gva obj) {
  cluster_->trace_event(t.node, cluster::TraceKind::kMonitorNotify,
                        static_cast<std::int64_t>(obj), 0);
  cluster::NodeId home = dsm_->effective_home_of(obj);
  if (home == t.node) {
    t.clock.charge_cycles(kLocalLockCycles);
    t.clock.flush();
    // Same mid-flush migration hazard as enter(): re-resolve after parking.
    if (dsm_->migrations_enabled()) home = dsm_->effective_home_of(obj);
  }
  if (home == t.node) {
    do_notify(home, obj, t.uid, /*all=*/false);
  } else {
    t.clock.flush();
    call_home(t, home, svc::kMonitorNotify, obj, /*all_flag=*/0);
  }
}

void MonitorSubsystem::notify_all(dsm::ThreadCtx& t, dsm::Gva obj) {
  cluster_->trace_event(t.node, cluster::TraceKind::kMonitorNotify,
                        static_cast<std::int64_t>(obj), 1);
  cluster::NodeId home = dsm_->effective_home_of(obj);
  if (home == t.node) {
    t.clock.charge_cycles(kLocalLockCycles);
    t.clock.flush();
    // Same mid-flush migration hazard as enter(): re-resolve after parking.
    if (dsm_->migrations_enabled()) home = dsm_->effective_home_of(obj);
  }
  if (home == t.node) {
    do_notify(home, obj, t.uid, /*all=*/true);
  } else {
    t.clock.flush();
    call_home(t, home, svc::kMonitorNotify, obj, /*all_flag=*/1);
  }
}

// ---------------------------------------------------------------------------
// Home-side state machine

void MonitorSubsystem::do_enter(cluster::NodeId home, dsm::Gva obj, Contender c) {
  MonitorState& m = state(home, obj);
  if (m.owner_uid == c.uid) {  // reentrant acquisition
    ++m.depth;
    grant(home, m, std::move(c));
    return;
  }
  m.queue.push_back(std::move(c));
  grant_next_if_free(home, m);
}

void MonitorSubsystem::do_exit(cluster::NodeId home, dsm::Gva obj, std::uint64_t uid) {
  MonitorState& m = state(home, obj);
  HYP_CHECK_MSG(m.owner_uid == uid, "monitor exit by a thread that does not own it");
  HYP_CHECK(m.depth > 0);
  if (--m.depth == 0) {
    m.owner_uid = 0;
    grant_next_if_free(home, m);
  }
}

void MonitorSubsystem::do_wait(cluster::NodeId home, dsm::Gva obj, Contender c) {
  MonitorState& m = state(home, obj);
  HYP_CHECK_MSG(m.owner_uid == c.uid, "Object.wait without owning the monitor");
  c.grant_depth = m.depth;  // full release; depth restored on re-grant
  m.wait_set.push_back(std::move(c));
  m.owner_uid = 0;
  m.depth = 0;
  grant_next_if_free(home, m);
}

void MonitorSubsystem::do_notify(cluster::NodeId home, dsm::Gva obj, std::uint64_t uid,
                                 bool all) {
  MonitorState& m = state(home, obj);
  HYP_CHECK_MSG(m.owner_uid == uid, "Object.notify without owning the monitor");
  const std::size_t moved = all ? m.wait_set.size() : (m.wait_set.empty() ? 0 : 1);
  for (std::size_t i = 0; i < moved; ++i) {
    m.queue.push_back(std::move(m.wait_set[i]));
  }
  m.wait_set.erase(m.wait_set.begin(),
                   m.wait_set.begin() + static_cast<std::ptrdiff_t>(moved));
  // The notifier still holds the monitor; the moved threads are granted at
  // its exit via grant_next_if_free.
}

void MonitorSubsystem::grant_next_if_free(cluster::NodeId home, MonitorState& m) {
  if (m.owner_uid != 0 || m.queue.empty()) return;
  Contender next = std::move(m.queue.front());
  m.queue.pop_front();
  m.owner_uid = next.uid;
  m.depth = next.grant_depth;
  grant(home, m, std::move(next));
}

void MonitorSubsystem::grant(cluster::NodeId home, MonitorState&, Contender c) {
  if (dsm_->ha() != nullptr && c.from >= 0) {
    // A grant must never land on a node that is inside a crash window: a dead
    // node processes nothing until its restart. This matters for contenders
    // that were queued at a home which then died — the failover moves the
    // queue to the elected home, which may reach this contender's turn while
    // its node is still down (local contenders would otherwise be unparked
    // directly, bypassing the network's crash windows entirely, read their
    // node's stale demoted-at-restart arena as if it were still home, and
    // feed the stale bytes back through the restart-side final-checkpoint
    // fold — a lost-update bug caught by ha_test's multi-failure matrix).
    // The contender already owns the monitor (grant order is decided by the
    // caller); only the wake/reply is deferred to the window's end, which by
    // the engine's (time, seq) order runs *after* the restart hook has
    // demoted the node's stale home authority.
    const Time now = cluster_->engine().now();
    const Time release = cluster_->params().fault.crash_release(c.from, now);
    if (release > now) {
      cluster_->engine().post(release, [this, home, c]() mutable {
        MonitorState unused;
        grant(home, unused, std::move(c));  // re-checks a back-to-back window
      });
      return;
    }
  }
  if (c.local) {
    *c.granted_flag = true;
    sim::Engine::current()->unpark(c.fiber);
  } else {
    cluster_->reply_to(home, c.from, c.reply_token, dsm_->stamped_reply(home));
  }
}

// ---------------------------------------------------------------------------
// RPC handlers

bool MonitorSubsystem::admit(cluster::Incoming& in, cluster::NodeId self,
                             cluster::ServiceId service, Request* req) {
  req->obj = in.reader.get<std::uint64_t>();
  req->uid = in.reader.get<std::uint64_t>();
  if (dsm_->fenced(in, self, service, /*ok_body_bytes=*/0)) return false;
  // Stale routing arises from HA promotions and from heat-driven home
  // migration (the two share this NACK discipline); with neither active the
  // static home can never be wrong and the check costs nothing. A straggler
  // is refused BEFORE its op id is recorded, so the caller's retry at the
  // new home is a fresh apply, not a reattach.
  if ((dsm_->ha() != nullptr || dsm_->migrations_enabled()) &&
      dsm_->effective_home_of(req->obj) != self) {
    dsm_->nack_stale_home(in, self, service, /*ok_body_bytes=*/0);
    return false;
  }
  req->retry = op_already_applied(in, self);
  cluster_->node(self).extend_service(cluster_->params().cpu.cycles(kManagerCycles));
  return true;
}

void MonitorSubsystem::handle_enter(cluster::Incoming& in, cluster::NodeId self) {
  Request req;
  if (!admit(in, self, svc::kMonitorEnter, &req)) return;
  if (req.retry) {
    reattach_enter(in, self, req.obj, req.uid);
    return;
  }
  Contender c;
  c.uid = req.uid;
  c.local = false;
  c.from = in.from;
  c.reply_token = in.reply_token;
  do_enter(self, req.obj, std::move(c));
}

void MonitorSubsystem::handle_exit(cluster::Incoming& in, cluster::NodeId self) {
  Request req;
  if (!admit(in, self, svc::kMonitorExit, &req)) return;
  if (!req.retry) do_exit(self, req.obj, req.uid);  // retry of an applied exit: just re-ack
  cluster_->reply(in, dsm_->stamped_reply(self));
}

void MonitorSubsystem::handle_wait(cluster::Incoming& in, cluster::NodeId self) {
  Request req;
  if (!admit(in, self, svc::kMonitorWait, &req)) return;
  if (req.retry) {
    reattach_wait(in, self, req.obj, req.uid);
    return;
  }
  Contender c;
  c.uid = req.uid;
  c.local = false;
  c.from = in.from;
  c.reply_token = in.reply_token;  // answered on re-grant
  do_wait(self, req.obj, std::move(c));
}

void MonitorSubsystem::handle_notify(cluster::Incoming& in, cluster::NodeId self) {
  Request req;
  if (!admit(in, self, svc::kMonitorNotify, &req)) return;
  const bool all = in.reader.get<std::uint8_t>() != 0;
  if (!req.retry) do_notify(self, req.obj, req.uid, all);  // applied already: just re-ack
  cluster_->reply(in, dsm_->stamped_reply(self));
}

}  // namespace hyp::hyperion
