#include "sim/engine.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace hyp::sim {

namespace {
thread_local Engine* t_current_engine = nullptr;
}  // namespace

// ---------------------------------------------------------------------------
// Fiber

Fiber::Fiber(Engine* engine, std::string name, UniqueFunction<void()> body,
             std::size_t stack_bytes)
    : engine_(engine), name_(std::move(name)), body_(std::move(body)) {
  stack_ = stack_allocate(stack_bytes);
  context_make(&context_, stack_.usable_base, stack_.usable_size, &Fiber::entry, this);
}

Fiber::~Fiber() {
  context_destroy(&context_);
  stack_free(stack_);
}

void Fiber::entry(void* self) {
  auto* fiber = static_cast<Fiber*>(self);
  Engine* engine = fiber->engine_;
  {
    // Move the body onto this fiber's stack so captured resources die with
    // the invocation, not with the Fiber object.
    UniqueFunction<void()> body = std::move(fiber->body_);
    body();
  }
  fiber->state_ = FiberState::kDone;
  for (Fiber* joiner : fiber->joiners_) engine->unpark(joiner);
  fiber->joiners_.clear();
  // Return control to the scheduler permanently.
  context_switch(&fiber->context_, &engine->scheduler_context_);
  HYP_PANIC("resumed a completed fiber");
}

// ---------------------------------------------------------------------------
// Engine

Engine::Engine() {
  shards_.resize(1);
  merge_pos_.assign(1, kNotInMerge);
}

Engine::~Engine() {
  HYP_CHECK_MSG(!running_, "engine destroyed while running");
}

Engine* Engine::current() { return t_current_engine; }

Fiber* Engine::spawn_impl(std::uint32_t shard, std::string name, UniqueFunction<void()> body,
                          std::size_t stack_bytes) {
  std::unique_ptr<Fiber> fiber(new Fiber(this, std::move(name), std::move(body), stack_bytes));
  Fiber* raw = fiber.get();
  raw->shard_ = shard;
  fibers_.push_back(std::move(fiber));
  schedule_wakeup(raw, now_, FiberState::kReadyQueued);
  return raw;
}

Fiber* Engine::spawn(std::string name, UniqueFunction<void()> body, std::size_t stack_bytes) {
  return spawn_impl(active_shard_, std::move(name), std::move(body), stack_bytes);
}

Fiber* Engine::spawn_on(std::uint32_t shard, std::string name, UniqueFunction<void()> body,
                        std::size_t stack_bytes) {
  HYP_CHECK_MSG(shard < shards_.size(), "spawn_on: shard out of range");
  return spawn_impl(shard, std::move(name), std::move(body), stack_bytes);
}

void Engine::configure_shards(std::uint32_t count) {
  HYP_CHECK_MSG(count >= 1, "configure_shards: need at least one shard");
  HYP_CHECK_MSG(!running_ && pending_total_ == 0 && next_seq_ == 0,
                "configure_shards must be called before any event exists");
  shards_.assign(count, Shard{});
  merge_.clear();
  merge_.reserve(count);
  merge_pos_.assign(count, kNotInMerge);
}

// ---------------------------------------------------------------------------
// Event heap + callback pool
//
// A flat binary min-heap of by-value 32-byte events replaces the old
// priority_queue<unique_ptr<Event>>: no per-event `new`, no pointer chase
// per comparison, and fiber wakeups (the overwhelming majority of events)
// carry no callback state at all. Posted callbacks are parked in a slot
// pool recycled through a free list, so the steady-state event path is
// allocation-free (docs/PERFORMANCE.md).

Engine::Event Engine::pop_event() {
  // Which shard holds the globally next (at, seq) event: with one shard it
  // is trivially shard 0 (no merge layer at all); otherwise the merge heap's
  // root. Sharding is pure executor layout — every event still carries a
  // unique global seq, so this pop order is bit-identical to a flat heap.
  const std::uint32_t s = shards_.size() > 1 ? merge_.front() : 0;
  active_shard_ = s;
  auto& heap = shards_[s].heap;
  const Event top = heap.front();
  const Event last = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size();
  if (n != 0) {
    // Sift the former last element down from the root.
    std::size_t i = 0;
    while (true) {
      const std::size_t l = 2 * i + 1;
      if (l >= n) break;
      const std::size_t r = l + 1;
      std::size_t best = (r < n && event_before(heap[r], heap[l])) ? r : l;
      if (!event_before(heap[best], last)) break;
      heap[i] = heap[best];
      i = best;
    }
    heap[i] = last;
  }
  --pending_total_;
  if (shards_.size() > 1) {
    // The popped shard's key (its head) either disappeared or grew, so the
    // fix-up is a removal or an O(log K) sift-down of the merge root.
    if (heap.empty()) {
      merge_remove_top();
    } else {
      merge_sift_down(0);
    }
  }
  return top;
}

void Engine::merge_sift_up(std::size_t i) {
  const std::uint32_t shard = merge_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!merge_shard_before(shard, merge_[parent])) break;
    merge_place(i, merge_[parent]);
    i = parent;
  }
  merge_place(i, shard);
}

void Engine::merge_sift_down(std::size_t i) {
  const std::uint32_t shard = merge_[i];
  const std::size_t n = merge_.size();
  while (true) {
    const std::size_t l = 2 * i + 1;
    if (l >= n) break;
    const std::size_t r = l + 1;
    const std::size_t best = (r < n && merge_shard_before(merge_[r], merge_[l])) ? r : l;
    if (!merge_shard_before(merge_[best], shard)) break;
    merge_place(i, merge_[best]);
    i = best;
  }
  merge_place(i, shard);
}

void Engine::merge_insert(std::uint32_t shard) {
  merge_.push_back(shard);
  merge_pos_[shard] = static_cast<std::uint32_t>(merge_.size() - 1);
  merge_sift_up(merge_.size() - 1);
}

void Engine::merge_remove_top() {
  merge_pos_[merge_.front()] = kNotInMerge;
  const std::uint32_t last = merge_.back();
  merge_.pop_back();
  if (!merge_.empty()) {
    merge_place(0, last);
    merge_sift_down(0);
  }
}

std::vector<std::string> Engine::run() {
  HYP_CHECK_MSG(!running_, "Engine::run is not reentrant");
  HYP_CHECK_MSG(t_current_engine == nullptr, "another engine is running on this thread");
  running_ = true;
  t_current_engine = this;

  while (true) {
    if (direct_ != nullptr) {
      // A callback unparked this fiber with nothing due ahead of it: its
      // wakeup (at now_) is the next event, dispatched without the queue.
      Fiber* fiber = std::exchange(direct_, nullptr);
      dispatch_seq_ = direct_seq_;
      active_shard_ = fiber->shard_;
      ++events_processed_;
      ++in_place_resumes_;
      switch_to(fiber);
      continue;
    }
    if (pending_total_ == 0) break;
    const Event event = pop_event();
    HYP_CHECK(event.at >= now_);
    now_ = event.at;
    dispatch_seq_ = event.seq;
    ++events_processed_;

    if (event.fiber != nullptr) {
      Fiber* fiber = event.fiber;
      HYP_CHECK_MSG(fiber->state_ == FiberState::kReadyQueued ||
                        fiber->state_ == FiberState::kSleeping,
                    "wakeup for a fiber in an unexpected state");
      switch_to(fiber);
    } else {
      // Move the callback out and recycle its slot BEFORE invoking: the
      // callback may post new events that reuse the (now empty) slot.
      UniqueFunction<void()> callback = std::move(cb_slots_[event.cb]);
      cb_free_.push_back(event.cb);
      callback();
    }
  }

  running_ = false;
  t_current_engine = nullptr;
  active_shard_ = 0;  // spawns/posts between runs go back to the default shard

  std::vector<std::string> stuck;
  for (const auto& fiber : fibers_) {
    if (!fiber->done()) stuck.push_back(fiber->name());
  }
  if (!stuck.empty()) {
    HYP_WARN("simulation quiesced with " << stuck.size() << " blocked fiber(s)");
  }
  return stuck;
}

void Engine::switch_to(Fiber* fiber) {
  fiber->state_ = FiberState::kRunning;
  current_ = fiber;
  ++switches_;
  context_switch(&scheduler_context_, &fiber->context_);
  current_ = nullptr;
}

void Engine::switch_out() {
  Fiber* fiber = current_;
  ++switches_;
  context_switch(&fiber->context_, &scheduler_context_);
}

void Engine::fail_no_fiber(const char* what) {
  HYP_PANIC(std::string(what) + " called outside a fiber");
}

void Engine::park() {
  require_fiber_context("park");
  Fiber* fiber = current_;
  if (fiber->permit_) {
    fiber->permit_ = false;
    return;
  }
  fiber->state_ = FiberState::kParked;
  switch_out();
}

void Engine::unpark(Fiber* fiber) {
  HYP_CHECK(fiber != nullptr);
  switch (fiber->state_) {
    case FiberState::kParked:
      // From a callback, with nothing due at now_ and no other in-place
      // wakeup: this wakeup is the next event whatever the callback posts
      // after it (a later post takes a later seq), so it skips the queue.
      if (running_ && current_ == nullptr && direct_ == nullptr && nothing_due_by(now_)) {
        direct_ = fiber;
        direct_seq_ = next_seq_++;
        fiber->state_ = FiberState::kReadyQueued;
        break;
      }
      schedule_wakeup(fiber, now_, FiberState::kReadyQueued);
      break;
    case FiberState::kRunning:
    case FiberState::kReadyQueued:
    case FiberState::kSleeping:
      fiber->permit_ = true;
      break;
    case FiberState::kDone:
      break;  // waking the dead is a no-op
  }
}

void Engine::join(Fiber* fiber) {
  require_fiber_context("join");
  HYP_CHECK_MSG(fiber != current_, "a fiber cannot join itself");
  while (!fiber->done()) {
    fiber->joiners_.push_back(current_);
    park();
  }
}

}  // namespace hyp::sim
