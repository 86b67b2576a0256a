// Node-local service resources in virtual time.
//
// Fibers block on a FifoServer by sleeping until their service completes;
// Java monitors block on Engine::park/unpark in hyperion::MonitorSubsystem.
#pragma once

#include "common/units.hpp"
#include "sim/engine.hpp"

namespace hyp::sim {

// A FIFO service resource with a given service discipline: callers occupy the
// server for a duration and block until their service completes. Models a
// node's DSM/RPC service capacity — a hot home node makes later requests
// queue behind earlier ones (the congestion effect in the paper's Barnes
// discussion). Because the simulation is single-threaded and cooperative,
// first-come-first-served falls directly out of the completion-time algebra.
class FifoServer {
 public:
  explicit FifoServer(Engine* engine) : engine_(engine) {}
  FifoServer(const FifoServer&) = delete;
  FifoServer& operator=(const FifoServer&) = delete;

  // Blocks the calling fiber until its service of length `duration`
  // completes; returns the virtual time at which service started.
  // Inline: CpuClock::flush calls this once per timeslice quantum, which
  // makes it one of the most frequently executed functions in a run.
  Time serve(TimeDelta duration) {
    const Time start = reserve(duration);
    engine_->sleep_until(start + duration);
    return start;
  }

  // Accounts for service occupancy without blocking the caller (used when
  // the "work" happens inside a handler fiber that is itself being timed).
  Time reserve(TimeDelta duration) {
    const Time now = engine_->now();
    const Time start = now > free_at_ ? now : free_at_;
    free_at_ = start + duration;
    ++jobs_;
    busy_ += duration;
    return start;
  }

  Time free_at() const { return free_at_; }
  std::uint64_t jobs_served() const { return jobs_; }
  TimeDelta busy_time() const { return busy_; }

 private:
  Engine* engine_;
  Time free_at_ = 0;
  std::uint64_t jobs_ = 0;
  TimeDelta busy_ = 0;
};

}  // namespace hyp::sim
