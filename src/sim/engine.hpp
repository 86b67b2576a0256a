// The discrete-event simulation engine.
//
// This is the "hardware" substitute for the paper's clusters: a virtual clock
// in picoseconds, a priority queue of timed events, and cooperative fibers
// standing in for node-local threads (PM2's Marcel threads). Everything runs
// on one OS thread, so a simulation is a deterministic function of its inputs
// — two runs of a benchmark produce bit-identical timings and statistics.
//
// Determinism contract: events fire in (time, creation sequence) order; all
// randomness flows through seeded hyp::Rng instances.
//
// The queue can be sharded (configure_shards): each shard keeps its own
// binary min-heap and a top-level indexed heap merges the shard heads, so
// the global pop order stays exactly (at, seq) — bit-identical to the flat
// heap — while pushes and pops touch only one small heap plus an O(log K)
// head fix-up. The cluster layer shards per node at large N
// (docs/SCALING.md); the default single shard IS the historical flat heap,
// same code path, same goldens.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/function.hpp"
#include "common/units.hpp"
#include "sim/context.hpp"

namespace hyp::sim {

class Engine;

enum class FiberState {
  kReadyQueued,  // has a pending wakeup event in the queue
  kRunning,
  kParked,       // blocked until unpark()
  kSleeping,     // blocked until a timer event
  kDone,
};

// A cooperative thread of execution inside the simulation. Created via
// Engine::spawn; never instantiated directly.
class Fiber {
 public:
  const std::string& name() const { return name_; }
  bool done() const { return state_ == FiberState::kDone; }
  FiberState state() const { return state_; }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber();

 private:
  friend class Engine;
  Fiber(Engine* engine, std::string name, UniqueFunction<void()> body, std::size_t stack_bytes);

  static void entry(void* self);

  Engine* engine_;
  std::string name_;
  UniqueFunction<void()> body_;
  StackAllocation stack_;
  Context context_{};
  FiberState state_ = FiberState::kParked;
  bool permit_ = false;  // a wakeup that arrived while not parked
  std::uint32_t shard_ = 0;  // event-queue shard its wakeups are pushed to
  std::vector<Fiber*> joiners_;
};

class Engine {
 public:
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Creates a fiber that becomes runnable at the current virtual time.
  // Callable both from outside run() (initial population) and from inside
  // fibers (dynamic thread creation).
  Fiber* spawn(std::string name, UniqueFunction<void()> body,
               std::size_t stack_bytes = kDefaultStackBytes);

  // spawn() pinned to an explicit queue shard: the fiber's wakeup events
  // (sleep, yield, unpark) are pushed to that shard for its whole life.
  // Plain spawn() inherits the shard of the event being dispatched.
  Fiber* spawn_on(std::uint32_t shard, std::string name, UniqueFunction<void()> body,
                  std::size_t stack_bytes = kDefaultStackBytes);

  // Schedules `fn` to run on the scheduler stack at time `at`. The callback
  // must not block; it typically deposits a message and unparks a fiber.
  //
  // post/sleep/yield are defined inline below: they run once or more per
  // simulated event (millions per benchmark) and most callers live in other
  // translation units (cluster.cpp, ha.cpp), so out-of-line definitions
  // would put a call on the hottest path in the program.
  void post(Time at, UniqueFunction<void()> fn) {
    HYP_CHECK_MSG(at >= now_, "posting an event into the past (at=" + std::to_string(at) +
                                  " now=" + std::to_string(now_) + ")");
    push_event(active_shard_, Event{at, next_seq_++, nullptr, cb_acquire(std::move(fn))});
  }

  // Like post(), but targets an explicit queue shard. Sharding is purely an
  // executor-layout choice: the (at, seq) pop order is identical no matter
  // which shard an event lands in. Plain post() inherits the shard of the
  // event currently being dispatched, so node-local chains stay node-local.
  void post_on(std::uint32_t shard, Time at, UniqueFunction<void()> fn) {
    HYP_CHECK_MSG(at >= now_, "posting an event into the past (at=" + std::to_string(at) +
                                  " now=" + std::to_string(now_) + ")");
    HYP_CHECK_MSG(shard < shards_.size(), "post_on: shard out of range");
    push_event(shard, Event{at, next_seq_++, nullptr, cb_acquire(std::move(fn))});
  }

  // Takes the seq the next post would take, for an event whose posting is
  // decided later (post_reserved): reserving it where the event would be
  // posted keeps every other event's seq, and so the whole (at, seq) order,
  // the same whether or not it is posted.
  std::uint64_t reserve_seq() { return next_seq_++; }

  // Posts `fn` at `at` under a seq taken earlier by reserve_seq(). The event
  // must not precede the one being dispatched: it would have run already.
  void post_reserved(std::uint32_t shard, Time at, std::uint64_t seq,
                     UniqueFunction<void()> fn) {
    HYP_CHECK_MSG(!dispatched_before(at, seq),
                  "post_reserved: the event precedes the one being dispatched (at=" +
                      std::to_string(at) + " now=" + std::to_string(now_) + ")");
    HYP_CHECK_MSG(shard < shards_.size(), "post_reserved: shard out of range");
    // A callback's in-place unpark (see run()) was the next event when it
    // took its seq; a reserved event may not land ahead of it.
    HYP_CHECK_MSG(direct_ == nullptr || at > now_ || seq > direct_seq_,
                  "post_reserved: the event precedes a callback's in-place unpark");
    push_event(shard, Event{at, seq, nullptr, cb_acquire(std::move(fn))});
  }

  // True when (at, seq) precedes the event being dispatched, i.e. an event
  // posted there would already have run.
  bool dispatched_before(Time at, std::uint64_t seq) const {
    return at != now_ ? at < now_ : seq < dispatch_seq_;
  }

  // Splits the event queue into `count` shards (see the header comment).
  // Must be called before any event is created; the engine starts with one
  // shard, which is exactly the historical flat heap.
  void configure_shards(std::uint32_t count);
  std::uint32_t shard_count() const { return static_cast<std::uint32_t>(shards_.size()); }

  // Runs the simulation until no events remain. Returns the names of
  // fibers that are still blocked (deadlock / lost wakeups); an empty vector
  // means clean quiescence.
  std::vector<std::string> run();

  Time now() const { return now_; }
  std::uint64_t context_switches() const { return switches_; }
  std::uint64_t events_processed() const { return events_processed_; }
  // Wakeups dispatched in place (see sleep_until): already counted in
  // events_processed() and context_switches(), as if they had been queued.
  std::uint64_t in_place_resumes() const { return in_place_resumes_; }

  // --- Fiber-side API (must be called from inside a running fiber) ---
  //
  // When the caller's own wakeup would be the next event, sleep_until and
  // yield dispatch it in place (resume_in_place): same seq, same counts, no
  // queue round trip and no context switch.
  void sleep_until(Time t) {
    require_fiber_context("sleep_until");
    HYP_CHECK_MSG(t >= now_, "sleeping into the past");
    if (nothing_due_by(t)) {
      resume_in_place(t);
      return;
    }
    schedule_wakeup(current_, t, FiberState::kSleeping);
    switch_out();
  }
  void sleep_for(TimeDelta dt) { sleep_until(now_ + dt); }
  // Re-queues the caller behind already-pending same-time events.
  void yield() {
    require_fiber_context("yield");
    if (nothing_due_by(now_)) {
      resume_in_place(now_);
      return;
    }
    schedule_wakeup(current_, now_, FiberState::kReadyQueued);
    switch_out();
  }
  // Blocks until unpark(). A permit delivered while runnable makes the next
  // park() return immediately (exactly once).
  void park();
  void unpark(Fiber* fiber);
  // Blocks until `fiber` completes. Joining a done fiber returns immediately.
  void join(Fiber* fiber);

  Fiber* current_fiber() const { return current_; }
  bool in_fiber() const { return current_ != nullptr; }

  // The engine currently executing run() on this OS thread, if any.
  static Engine* current();

  // --- event-pool introspection (tests / host-perf diagnostics) -----------
  std::size_t pending_events() const { return pending_total_; }
  std::size_t event_heap_capacity() const {
    std::size_t total = 0;
    for (const Shard& s : shards_) total += s.heap.capacity();
    return total;
  }
  std::size_t callback_pool_slots() const { return cb_slots_.size(); }
  std::size_t callback_pool_free() const { return cb_free_.size(); }

 private:
  friend class Fiber;

  // By-value heap entry: 32 bytes, trivially copyable. Fiber wakeups carry
  // no callback at all; posted callbacks live in the pooled slot `cb`, so
  // pushing/popping/sifting never allocates and never runs a destructor.
  struct Event {
    Time at;
    std::uint64_t seq;
    Fiber* fiber;       // nullptr for callback events
    std::uint32_t cb;   // index into cb_slots_, kNoCallback for wakeups
  };
  static constexpr std::uint32_t kNoCallback = 0xffffffffu;

  static bool event_before(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;  // the determinism tiebreak: creation order
  }

  // One shard = one binary min-heap ordered by event_before. merge_ is an
  // indexed heap over the *non-empty* shards keyed by their head events, so
  // the globally next event is shards_[merge_.front()].heap.front();
  // merge_pos_[s] is shard s's slot in merge_ (kNotInMerge while empty).
  // With a single shard the merge layer is skipped entirely — that is the
  // historical flat-heap code path, instruction for instruction.
  struct Shard {
    std::vector<Event> heap;
  };
  static constexpr std::uint32_t kNotInMerge = 0xffffffffu;

  void push_event(std::uint32_t shard, const Event& e) {
    auto& heap = shards_[shard].heap;
    heap.push_back(e);
    std::size_t i = heap.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!event_before(heap[i], heap[parent])) break;
      std::swap(heap[i], heap[parent]);
      i = parent;
    }
    ++pending_total_;
    // A push can only *lower* a shard's key (its head event), so the merge
    // fix-up is an O(log K) sift-up — and only when the head actually changed.
    if (shards_.size() > 1) {
      if (merge_pos_[shard] == kNotInMerge) {
        merge_insert(shard);
      } else if (i == 0) {
        merge_sift_up(merge_pos_[shard]);
      }
    }
  }
  Event pop_event();  // also records the source shard in active_shard_

  bool merge_shard_before(std::uint32_t a, std::uint32_t b) const {
    return event_before(shards_[a].heap.front(), shards_[b].heap.front());
  }
  void merge_place(std::size_t i, std::uint32_t shard) {
    merge_[i] = shard;
    merge_pos_[shard] = static_cast<std::uint32_t>(i);
  }
  void merge_sift_up(std::size_t i);
  void merge_sift_down(std::size_t i);
  void merge_insert(std::uint32_t shard);
  void merge_remove_top();
  std::uint32_t cb_acquire(UniqueFunction<void()> fn) {
    std::uint32_t idx;
    if (!cb_free_.empty()) {
      idx = cb_free_.back();
      cb_free_.pop_back();
      cb_slots_[idx] = std::move(fn);
    } else {
      idx = static_cast<std::uint32_t>(cb_slots_.size());
      cb_slots_.push_back(std::move(fn));
    }
    return idx;
  }

  // True when no pending event is due at or before `t`, so a wakeup posted
  // now for `t` would be the next event dispatched.
  bool nothing_due_by(Time t) const {
    if (pending_total_ == 0) return true;
    const std::uint32_t s = shards_.size() > 1 ? merge_.front() : 0;
    return shards_[s].heap.front().at > t;
  }
  // Dispatches the running fiber's own wakeup at `t` without leaving it: the
  // wakeup takes its seq and counts as one event and two switches, exactly
  // as the trip through the queue would have.
  void resume_in_place(Time t) {
    dispatch_seq_ = next_seq_++;
    now_ = t;
    ++events_processed_;
    ++in_place_resumes_;
    switches_ += 2;
    active_shard_ = current_->shard_;
  }

  void schedule_wakeup(Fiber* fiber, Time at, FiberState pending_state) {
    HYP_CHECK_MSG(at >= now_, "scheduling a wakeup into the past");
    HYP_CHECK_MSG(fiber->state_ == FiberState::kRunning || fiber->state_ == FiberState::kParked,
                  "fiber already has a pending wakeup");
    push_event(fiber->shard_, Event{at, next_seq_++, fiber, kNoCallback});
    fiber->state_ = pending_state;
  }
  Fiber* spawn_impl(std::uint32_t shard, std::string name, UniqueFunction<void()> body,
                    std::size_t stack_bytes);
  void switch_to(Fiber* fiber);
  void switch_out();  // fiber -> scheduler
  void require_fiber_context(const char* what) const {
    if (current_ == nullptr) [[unlikely]] fail_no_fiber(what);
  }
  [[noreturn]] static void fail_no_fiber(const char* what);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatch_seq_ = 0;  // seq of the event being dispatched (at now_)
  // A callback's unpark whose wakeup is the next event: run() switches to it
  // as soon as the callback returns, skipping the queue. At most one.
  Fiber* direct_ = nullptr;
  std::uint64_t direct_seq_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t in_place_resumes_ = 0;
  bool running_ = false;
  Fiber* current_ = nullptr;
  Context scheduler_context_{};
  // The event queue: one binary min-heap per shard plus the merge heap of
  // shard heads. The engine starts with one shard (= the flat heap).
  std::vector<Shard> shards_;
  std::vector<std::uint32_t> merge_;      // heap of non-empty shard indices
  std::vector<std::uint32_t> merge_pos_;  // [shard] -> slot in merge_
  std::size_t pending_total_ = 0;         // events across all shards
  std::uint32_t active_shard_ = 0;        // shard of the event being dispatched
  // Free-list pool of callback slots: a slot is acquired by post(), released
  // (and its UniqueFunction moved out) when the event fires. Steady state
  // recycles slots with no allocation; SBO callbacks never touch the heap.
  std::vector<UniqueFunction<void()>> cb_slots_;
  std::vector<std::uint32_t> cb_free_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
};

// Convenience accessors for code running inside fibers.
inline Time now() { return Engine::current()->now(); }
inline void sleep_for(TimeDelta dt) { Engine::current()->sleep_for(dt); }
inline void sleep_until(Time t) { Engine::current()->sleep_until(t); }
inline void yield() { Engine::current()->yield(); }

}  // namespace hyp::sim
