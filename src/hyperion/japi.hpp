// The Java API subset (Table 1, "Java API subsystem").
//
// Native methods Hyperion implemented in its runtime; everything here is
// built on the public object/monitor primitives exactly as compiled Java
// library code would be. JBarrier is the idiomatic synchronized/wait/notify
// cyclic barrier the benchmark programs use between time steps — every
// crossing performs real monitor traffic and therefore the cache
// invalidation the paper's protocols must absorb.
#pragma once

#include <cstdint>

#include "hyperion/object.hpp"
#include "hyperion/vm.hpp"

namespace hyp::hyperion::japi {

// java.lang.System.currentTimeMillis, in virtual time.
inline std::int64_t current_time_millis(JavaEnv& env) {
  return static_cast<std::int64_t>(env.now() / kMillisecond);
}

// java.lang.Thread.sleep: materializes batched compute, then sleeps in
// virtual time.
inline void thread_sleep(JavaEnv& env, std::int64_t millis) {
  HYP_CHECK(millis >= 0);
  env.ctx().clock.flush();
  sim::Engine::current()->sleep_for(static_cast<TimeDelta>(millis) * kMillisecond);
}

// java.lang.System.arraycopy: element-wise through the access primitives
// (under java_ic every element costs a locality check, as compiled code did).
template <typename Policy, typename T>
void arraycopy(JavaEnv& env, GArray<T> src, std::int64_t src_pos, GArray<T> dst,
               std::int64_t dst_pos, std::int64_t length) {
  Mem<Policy> mem(env.ctx());
  for (std::int64_t i = 0; i < length; ++i) {
    mem.aput(dst, dst_pos + i, mem.aget(src, src_pos + i));
  }
}

// A cyclic barrier in the classic Java synchronized/wait/notifyAll idiom.
// The handle is a small value type; copy it into thread closures.
struct JBarrier {
  GRef<std::int32_t> count;
  GRef<std::int32_t> generation;
  dsm::Gva lock = dsm::kNullGva;  // the barrier object's own monitor
  std::int32_t parties = 0;

  static JBarrier create(JavaEnv& env, std::int32_t parties) {
    HYP_CHECK(parties > 0);
    JBarrier b;
    b.count = env.new_cell<std::int32_t>(0);
    b.generation = env.new_cell<std::int32_t>(0);
    b.lock = b.count.addr;
    b.parties = parties;
    return b;
  }

  template <typename Policy>
  void await(JavaEnv& env) const {
    Mem<Policy> mem(env.ctx());
    env.monitor_enter(lock);
    const std::int32_t g = mem.get(generation);
    const std::int32_t arrived = mem.get(count) + 1;
    if (arrived == parties) {
      mem.put(count, 0);
      mem.put(generation, g + 1);
      env.notify_all(lock);
    } else {
      mem.put(count, arrived);
      while (mem.get(generation) == g) env.wait(lock);
    }
    env.monitor_exit(lock);
  }
};

}  // namespace hyp::hyperion::japi
