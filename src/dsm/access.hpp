// The get/put access primitives — the heart of the paper.
//
// Applications are templated over one of these policies, exactly as
// Hyperion's java2c compiler emitted one access sequence per protocol:
//
//   IcPolicy (java_ic): every access executes an explicit locality check —
//     we run a *real* presence test and additionally count the check on the
//     thread's clock (CpuClock::charge_check, one increment). The clock's
//     next flush settles the count: the modeled check cost (what the check
//     cost on the paper's CPUs) per check, and the node's inline_checks
//     tally. Every miss, sleep, monitor operation and updateMainMemory
//     flushes first, so nothing observes a check before it settles. Misses
//     go through the checked fetch path. Non-home stores are recorded in the
//     write log, field by field.
//
//   PfPolicy (java_pf): accesses compile to bare loads/stores. The presence
//     test below plays the MMU: it costs nothing in virtual time when the
//     page is present (hardware does it for free); when the page is absent
//     it charges the paper's measured page-fault cost and runs the fault
//     handler (fetch + mprotect + twin). A store's test also finds a
//     replica's first local store, which takes the twin's bytes on the host
//     (the copy's virtual time was charged at fetch).
//
// Both policies operate on real bytes in the node's arena; a protocol bug
// yields wrong program output, not just wrong timing.
#pragma once

#include <cstring>
#include <type_traits>

#include "common/stats.hpp"
#include "dsm/dsm.hpp"

namespace hyp::dsm {

template <typename T>
concept DsmScalar = std::is_trivially_copyable_v<T> &&
                    (sizeof(T) == 1 || sizeof(T) == 2 || sizeof(T) == 4 || sizeof(T) == 8);

// The fast paths read ThreadCtx::presence directly: one indexed byte load
// answers both "present?" (bit 0) and "home?" (bit 1), and for a pf-mode
// store "are the twin's bytes taken?", with no NodeDsm call and no
// home_of_page division (docs/PERFORMANCE.md). The page id comes from
// ThreadCtx::page_shift (cached from Layout), so address-to-page is a single
// shift with no dsm->layout() chase. The miss branches only ever run for
// non-home pages (home pages are always present), so a presence byte loaded
// before the miss still gives the correct home answer after it.
//
// Race-detector hooks are a compile-time variant (RaceHooks), not a runtime
// pointer test: even a never-taken call site in these bodies measurably
// slows the tight access loops (register pressure around the call), and the
// detector-off contract is ZERO overhead. with_policy() picks the
// instrumented instantiation only when a detector is attached.

// A pf-mode replica's first local store takes the twin's bytes just before
// it lands, tested after the store's miss, if any, returned: the miss can
// yield, and a sibling's acquire can invalidate the page meanwhile. Only a
// byte still twinned without bytes (kTwinBit is set only on present
// replicas) takes them; on a page gone absent the store lands untwinned.
constexpr std::uint8_t kTwinState = NodeDsm::kTwinBit | NodeDsm::kTwinBytesBit;

template <bool RaceHooks = false>
struct IcPolicyT {
  static constexpr ProtocolKind kKind = ProtocolKind::kJavaIc;
  static constexpr const char* kName = "java_ic";

  template <DsmScalar T>
  static T get(ThreadCtx& t, Gva a) {
    t.clock.charge_check();  // the in-line locality check, every access
    const PageId p = static_cast<PageId>(a >> t.page_shift);
    if ((t.presence[p] & NodeDsm::kPresentBit) == 0) [[unlikely]] {
      t.dsm->miss(t, p);
    }
    T v;
    std::memcpy(&v, t.base + a, sizeof(T));
    if constexpr (RaceHooks) {
      if (t.race != nullptr) t.race->on_read(t.race_tid, a, sizeof(T));
    }
    return v;
  }

  template <DsmScalar T>
  static void put(ThreadCtx& t, Gva a, T v) {
    t.clock.charge_check();
    const PageId p = static_cast<PageId>(a >> t.page_shift);
    const std::uint8_t st = t.presence[p];
    if ((st & NodeDsm::kPresentBit) == 0) [[unlikely]] {
      t.dsm->miss(t, p);  // absent => not home; st == 0 stays correct below
    }
    std::memcpy(t.base + a, &v, sizeof(T));
    if ((st & NodeDsm::kHomeBit) == 0) {
      // Record the modification with field granularity (Table 2, put).
      std::uint64_t value = 0;
      std::memcpy(&value, &v, sizeof(T));
      t.wlog.record(a, sizeof(T), value);
      t.stats->add(Counter::kWriteLogEntries);
    }
    if constexpr (RaceHooks) {
      if (t.race != nullptr) t.race->on_write(t.race_tid, a, sizeof(T));
    }
  }
};

template <bool RaceHooks = false>
struct PfPolicyT {
  static constexpr ProtocolKind kKind = ProtocolKind::kJavaPf;
  static constexpr const char* kName = "java_pf";

  template <DsmScalar T>
  static T get(ThreadCtx& t, Gva a) {
    const PageId p = static_cast<PageId>(a >> t.page_shift);
    if ((t.presence[p] & NodeDsm::kPresentBit) == 0) [[unlikely]] {
      t.dsm->miss(t, p);  // the simulated MMU trap
    }
    T v;
    std::memcpy(&v, t.base + a, sizeof(T));
    if constexpr (RaceHooks) {
      if (t.race != nullptr) t.race->on_read(t.race_tid, a, sizeof(T));
    }
    return v;
  }

  template <DsmScalar T>
  static void put(ThreadCtx& t, Gva a, T v) {
    const PageId p = static_cast<PageId>(a >> t.page_shift);
    if ((t.presence[p] & (NodeDsm::kHomeBit | NodeDsm::kTwinBytesBit)) == 0) [[unlikely]] {
      // Absent, or a replica's first local store.
      if ((t.presence[p] & NodeDsm::kPresentBit) == 0) t.dsm->miss(t, p);
      if ((t.presence[p] & kTwinState) == NodeDsm::kTwinBit) t.nd->take_twin(p);
    }
    // Direct store; updateMainMemory finds it by twin comparison.
    std::memcpy(t.base + a, &v, sizeof(T));
    if constexpr (RaceHooks) {
      if (t.race != nullptr) t.race->on_write(t.race_tid, a, sizeof(T));
    }
  }
};

// hybrid: the per-page detection mode lives in the same presence byte
// (NodeDsm::kPfModeBit), so the fast path is still one indexed load — a
// non-home page whose bit is clear (a fresh page is 0) is in ic mode and
// counts the inline check, as java_ic does; pf-mode pages and home pages
// access bare. The raw tally of the node's heat slot of the page
// (ThreadCtx::heat: the node's base awin plus one shift of the page id into
// the page-major table) is a host-only increment feeding the switch
// decision on the miss cold path.
template <bool RaceHooks = false>
struct HybridPolicyT {
  static constexpr ProtocolKind kKind = ProtocolKind::kHybrid;
  static constexpr const char* kName = "hybrid";
  static constexpr std::uint8_t kBare = NodeDsm::kHomeBit | NodeDsm::kPfModeBit;

  template <DsmScalar T>
  static T get(ThreadCtx& t, Gva a) {
    const PageId p = static_cast<PageId>(a >> t.page_shift);
    obs::WindowedHeat::Slot& heat = t.heat(p);
    ++heat.raw;
    const std::uint8_t st = t.presence[p];
    if ((st & kBare) == 0) {
      t.clock.charge_check();
      // Dense-generation escape: a present ic page whose raw tally has
      // reached the break-even R has already paid a fault's worth of checks
      // with no miss to re-decide at — flip it to pf now (yield-free; the
      // present bit cannot change under us).
      if ((st & NodeDsm::kPresentBit) != 0 && heat.raw >= t.ic_giveup) [[unlikely]] {
        t.dsm->give_up_ic(t, p);
      }
    }
    if ((st & NodeDsm::kPresentBit) == 0) [[unlikely]] {
      t.dsm->miss(t, p);
    }
    T v;
    std::memcpy(&v, t.base + a, sizeof(T));
    if constexpr (RaceHooks) {
      if (t.race != nullptr) t.race->on_read(t.race_tid, a, sizeof(T));
    }
    return v;
  }

  template <DsmScalar T>
  static void put(ThreadCtx& t, Gva a, T v) {
    const PageId p = static_cast<PageId>(a >> t.page_shift);
    obs::WindowedHeat::Slot& heat = t.heat(p);
    ++heat.raw;
    std::uint8_t st = t.presence[p];
    if ((st & kBare) == 0) {
      t.clock.charge_check();
      if ((st & NodeDsm::kPresentBit) != 0 && heat.raw >= t.ic_giveup) [[unlikely]] {
        t.dsm->give_up_ic(t, p);
        // The flip set the pf bit: the store below must go bare and be
        // found by the fresh twin, not double-logged.
        st = t.presence[p];
      }
    }
    if ((st & NodeDsm::kPresentBit) == 0) [[unlikely]] {
      t.dsm->miss(t, p);
      // The miss may have flipped the page's mode (or migrated its home
      // here): the logging decision must see the POST-miss byte, or a store
      // could be neither logged nor twin-diffed — a lost update.
      st = t.presence[p];
    }
    if ((st & kTwinState) == NodeDsm::kTwinBit) [[unlikely]] t.nd->take_twin(p);
    std::memcpy(t.base + a, &v, sizeof(T));
    if ((st & kBare) == 0) {
      // Non-home page in ic mode: field-granularity write log (pf-mode pages
      // are covered by their twin diff instead).
      std::uint64_t value = 0;
      std::memcpy(&value, &v, sizeof(T));
      t.wlog.record(a, sizeof(T), value);
      t.stats->add(Counter::kWriteLogEntries);
    }
    if constexpr (RaceHooks) {
      if (t.race != nullptr) t.race->on_write(t.race_tid, a, sizeof(T));
    }
  }
};

using IcPolicy = IcPolicyT<>;
using PfPolicy = PfPolicyT<>;
using HybridPolicy = HybridPolicyT<>;

// Calls fn<Policy>() with the policy matching the DSM's configured protocol.
// This is the one runtime dispatch, made once per program, mirroring how a
// Hyperion deployment linked one protocol or the other.
template <typename Fn>
decltype(auto) with_policy(ProtocolKind kind, Fn&& fn) {
  switch (kind) {
    case ProtocolKind::kJavaIc: return fn(IcPolicy{});
    case ProtocolKind::kJavaPf: return fn(PfPolicy{});
    case ProtocolKind::kHybrid: return fn(HybridPolicy{});
  }
  HYP_PANIC("unreachable protocol kind");
}

// Same, but picks the race-instrumented instantiation when a detector is
// attached (VmConfig::race != nullptr). Apps route through this so the
// uninstrumented build of their kernels stays byte-for-byte the fast path.
template <typename Fn>
decltype(auto) with_policy(ProtocolKind kind, bool race_hooks, Fn&& fn) {
  if (!race_hooks) return with_policy(kind, static_cast<Fn&&>(fn));
  switch (kind) {
    case ProtocolKind::kJavaIc: return fn(IcPolicyT<true>{});
    case ProtocolKind::kJavaPf: return fn(PfPolicyT<true>{});
    case ProtocolKind::kHybrid: return fn(HybridPolicyT<true>{});
  }
  HYP_PANIC("unreachable protocol kind");
}

}  // namespace hyp::dsm
