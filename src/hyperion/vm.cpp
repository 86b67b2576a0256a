#include "hyperion/vm.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "ha/ha.hpp"

namespace hyp::hyperion {

namespace {
// Modeled cost of the allocation fast path (bump pointer + zeroing already
// done by the OS; header write).
constexpr std::uint64_t kAllocCycles = 40;
}  // namespace

// ---------------------------------------------------------------------------
// JavaEnv

JavaEnv::JavaEnv(HyperionVM* vm, std::unique_ptr<dsm::ThreadCtx> ctx)
    : vm_(vm), ctx_(std::move(ctx)) {}

dsm::Gva JavaEnv::alloc_raw(std::size_t bytes, std::size_t align) {
  ctx_->clock.charge_cycles(kAllocCycles);
  return vm_->dsm_.alloc(ctx_->node, bytes, align);
}

void JavaEnv::monitor_enter(dsm::Gva obj) { vm_->monitors_.enter(*ctx_, obj); }
void JavaEnv::monitor_exit(dsm::Gva obj) { vm_->monitors_.exit(*ctx_, obj); }
void JavaEnv::wait(dsm::Gva obj) { vm_->monitors_.wait(*ctx_, obj); }
void JavaEnv::notify(dsm::Gva obj) { vm_->monitors_.notify_one(*ctx_, obj); }
void JavaEnv::notify_all(dsm::Gva obj) { vm_->monitors_.notify_all(*ctx_, obj); }

Time JavaEnv::now() const { return vm_->cluster_.engine().now(); }

void JavaEnv::mark_benign(dsm::Gva addr, std::size_t bytes) {
  if (ctx_->race != nullptr) ctx_->race->mark_benign(addr, addr + bytes);
}

void JavaEnv::migrate_to(NodeId target, std::size_t state_bytes) {
  HYP_CHECK_MSG(target >= 0 && target < vm_->nodes(), "migration target out of range");
  const NodeId source = ctx_->node;
  if (target == source) return;

  // Leaving: push working memory home (the thread may not revisit this node).
  vm_->dsm_.on_release(*ctx_);
  ctx_->clock.flush();

  // The thread itself is the payload: sleep for the transfer of its state.
  const auto& net = vm_->cluster_.params().net;
  cluster::Node& src = vm_->cluster_.node(source);
  vm_->cluster_.trace_event(source, cluster::TraceKind::kThreadMigrate, source, target);
  src.stats().add(Counter::kThreadMigrations);
  src.stats().add(Counter::kMessages);
  src.stats().add(Counter::kMessageBytes, state_bytes);
  sim::Engine::current()->sleep_for(net.send_overhead + net.wire_time(state_bytes) +
                                    net.recv_overhead);

  // Rebind the execution context to the target node. The fiber (the "stack")
  // does not move in the simulation — iso-addressing made that a no-op in
  // PM2 as well. The clock was flushed above, so every check the thread ran
  // on `source` is already in source's tally.
  vm_->dsm_.bind_thread(*ctx_, target);

  // Arriving: start with a coherent view (and flush the empty log state).
  vm_->dsm_.on_acquire(*ctx_);
}

JThread JavaEnv::start_thread(std::string name, std::function<void(JavaEnv&)> body) {
  // Thread.start() happens-before the thread body: push our modifications to
  // central memory first.
  vm_->dsm_.on_release(*ctx_);

  const NodeId target = vm_->balancer_->place(vm_->threads_started_++, vm_->nodes());
  HyperionVM* vm = vm_;
  JThread handle;
  handle.node_ = target;
  // Fork edge for the race detector: snapshot the parent's clock into a
  // token; the child joins it on startup, and publishes its final clock
  // under the same token at exit for join() (docs/RACES.md).
  obs::RaceDetector* race = vm_->dsm_.race();
  const std::uint64_t token =
      race != nullptr ? race->prepare_fork(ctx_->race_tid) : 0;
  handle.race_token_ = token;
  handle.fiber_ = vm_->cluster_.spawn_thread(
      target, std::move(name), [vm, target, token, fn = std::move(body)]() mutable {
        JavaEnv env(vm, vm->dsm_.make_thread(target));
        vm->cluster_.trace_event(target, cluster::TraceKind::kThreadStart,
                                 static_cast<std::int64_t>(env.ctx().uid));
        if (env.ctx().race != nullptr) env.ctx().race->adopt_fork(token, env.ctx().race_tid);
        // Acquire side of the start() edge: begin with a clean cache.
        vm->dsm_.on_acquire(env.ctx());
        fn(env);
        // Thread termination happens-before join(): flush working memory.
        vm->dsm_.on_release(env.ctx());
        if (env.ctx().race != nullptr) env.ctx().race->thread_exit(token, env.ctx().race_tid);
        // Everything this thread ever charged to its CPU clock is compute
        // (app cycles + protocol in-line costs); attributed to the node the
        // thread ended on (migration moves the attribution with the thread).
        vm->cluster_.phase_add(env.ctx().node, obs::Phase::kCompute,
                               env.ctx().clock.total_charged());
      });
  return handle;
}

void JavaEnv::join(JThread& thread) {
  HYP_CHECK_MSG(thread.valid(), "joining a thread that was never started");
  ctx_->clock.flush();
  const Time join_begin = vm_->cluster_.engine().now();
  sim::Engine::current()->join(thread.fiber_);
  vm_->cluster_.phase_add(ctx_->node, obs::Phase::kBarrier,
                          vm_->cluster_.engine().now() - join_begin);
  // Join edge for the race detector: inherit the joined thread's final clock.
  if (ctx_->race != nullptr) ctx_->race->join(ctx_->race_tid, thread.race_token_);
  // Acquire side of the join() edge: see everything the thread wrote.
  vm_->dsm_.on_acquire(*ctx_);
}

// ---------------------------------------------------------------------------
// HyperionVM

HyperionVM::HyperionVM(VmConfig config)
    : config_(std::move(config)),
      cluster_(config_.cluster, config_.nodes),
      dsm_(&cluster_, config_.region_bytes, config_.protocol),
      monitors_(&cluster_, &dsm_),
      balancer_(std::make_unique<RoundRobinBalancer>()) {
  // Observability attachments (see VmConfig): sized here so callers only
  // declare the objects and the VM binds them to the run's actual layout.
  if (config_.trace != nullptr) cluster_.set_trace(config_.trace);
  if (config_.heat != nullptr) {
    config_.heat->init(dsm_.layout().total_pages(), dsm_.layout().page_bytes());
    dsm_.set_heat(config_.heat);
  }
  if (config_.phases != nullptr) {
    config_.phases->init(cluster_.node_count());
    cluster_.set_phases(config_.phases);
  }
  if (config_.race != nullptr) {
    // Attach before run_main creates the primary thread so thread 1 (main)
    // is registered from its first access (docs/RACES.md).
    config_.race->begin_run(&cluster_, dsm_.layout().page_shift());
    dsm_.set_race(config_.race);
    cluster_.set_race_hooks(config_.race);
  }
  // Monitor state moves with the home of the object it guards, whatever
  // moved it: a migration, its revert or an HA promotion (DsmSystem::hand_off).
  dsm_.set_home_moved_hook([this](NodeId from, NodeId to, dsm::Gva begin, dsm::Gva end) {
    monitors_.fail_over_home(from, to, begin, end);
  });
  // Heat-driven home migration (hybrid protocol): the old home NACKs
  // stragglers exactly like a post-promotion HA home, which may make a node
  // its own target mid-call.
  if (dsm_.migrations_enabled()) cluster_.allow_loopback();
  // A scheduled crash window — or a partition window that actually splits
  // this run's nodes — engages the HA subsystem (docs/RECOVERY.md,
  // docs/PARTITIONS.md); without one every HA branch below stays a
  // null-pointer test and the event sequence is bit-identical to the goldens.
  // Windows naming nodes this run does not have are inert (a figure sweep
  // reuses one profile across cluster sizes), so HA engages only when a
  // window actually applies. (Window validity — positive start/duration,
  // group shapes, detector tuning — is a parse-time CLI error in
  // cluster/params.cpp, not a check here.)
  bool crash_applies = false;
  for (const auto& c : cluster_.params().fault.crashes) {
    if (c.node < cluster_.node_count()) crash_applies = true;
  }
  bool partition_applies = false;
  for (const auto& w : cluster_.params().fault.partitions) {
    bool a = false;
    bool b = false;
    for (cluster::NodeId n : w.group_a) a = a || n < cluster_.node_count();
    for (cluster::NodeId n : w.group_b) b = b || n < cluster_.node_count();
    if (a && b) partition_applies = true;
  }
  if (crash_applies || partition_applies) {
    ha_ = std::make_unique<ha::HaManager>(&cluster_, &dsm_);
    cluster_.set_ha_hooks(ha_.get());
    dsm_.set_ha(ha_.get());  // the monitors read HA and fencing from the DSM
    ha_->start();
  }
}

HyperionVM::~HyperionVM() = default;

Time HyperionVM::run_main(std::function<void(JavaEnv&)> main_fn) {
  threads_started_ = 0;
  HyperionVM* vm = this;
  cluster_.spawn_thread(0, "java-main", [vm, fn = std::move(main_fn)]() mutable {
    JavaEnv env(vm, vm->dsm_.make_thread(0));
    fn(env);
    env.ctx().clock.flush();
    vm->cluster_.phase_add(env.ctx().node, obs::Phase::kCompute,
                           env.ctx().clock.total_charged());
    vm->elapsed_ = vm->cluster_.engine().now();
    // End the failure detector's self-chaining ticks so the engine quiesces.
    if (vm->ha_ != nullptr) vm->ha_->stop();
  });
  cluster_.run();
  return elapsed_;
}

}  // namespace hyp::hyperion
