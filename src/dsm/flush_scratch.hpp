// Reusable per-thread scratch state for the consistency flush hot path.
//
// updateMainMemory runs at EVERY monitor entry/exit (§3.1), so its host cost
// is paid millions of times per paper-size run: this scratch lives on the
// ThreadCtx and is recycled instead of building fresh maps and byte vectors
// per flush. One update pipeline serves all three protocols
// (DsmSystem::update_main_memory: collect -> group -> ship), with one lane
// per wire format:
//
//   * fields — the write log, deduplicated to last-writer-wins through an
//     open-addressing, generation-stamped table (addr -> lane index) while
//     first-touch order is kept (svc::kUpdateFields);
//   * runs — the modified-word runs of the twin diff, whose payload bytes all
//     land in one shared append-only arena (offsets, not pointers, survive
//     arena growth; svc::kUpdateRuns).
//
// java_ic never twins and java_pf never logs, so each finds one lane empty;
// hybrid fills both. Every item carries its cohort key, and the ship loop
// peels one cohort per message off its lane.
//
// Nothing here is visible in simulated time: the scratch only changes how
// fast the host computes the same messages (docs/PERFORMANCE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "dsm/address.hpp"
#include "dsm/write_log.hpp"

namespace hyp::dsm {

// Open-addressing hash table: Gva -> index in the fields lane, cleared in
// O(1) by bumping a generation stamp. Linear probing, power-of-two capacity
// kept at least 2x the expected entry count.
class DedupTable {
 public:
  struct Slot {
    Gva addr = 0;
    std::uint32_t gen = 0;
    std::uint32_t index = 0;
  };

  // Starts a new flush expecting up to `expected` distinct addresses.
  void begin(std::size_t expected) {
    std::size_t want = 16;
    while (want < expected * 2) want <<= 1;
    if (want > slots_.size()) {
      slots_.assign(want, Slot{});
      gen_ = 0;
    }
    if (++gen_ == 0) {  // stamp wrapped: wipe and restart
      for (Slot& s : slots_) s.gen = 0;
      gen_ = 1;
    }
    mask_ = slots_.size() - 1;
  }

  // Returns the slot for `addr`; `*fresh` reports whether it was vacant.
  // The caller fills the index on fresh insertion.
  Slot* find_or_insert(Gva addr, bool* fresh) {
    std::size_t i = hash(addr) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {  // vacant this generation
        s.addr = addr;
        s.gen = gen_;
        *fresh = true;
        return &s;
      }
      if (s.addr == addr) {
        *fresh = false;
        return &s;
      }
      i = (i + 1) & mask_;
    }
  }

 private:
  static std::size_t hash(Gva a) {
    // Fibonacci scrambling; addresses are 8-byte aligned so mix the high bits.
    return static_cast<std::size_t>((a >> 3) * 0x9E3779B97F4A7C15ull >> 17);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::uint32_t gen_ = 0;
};

// One pending update of either lane: `len` bytes destined for `addr`, tagged
// with its cohort key (a home, zone or page id; see DsmSystem::CohortKey).
// A field carries its value inline in `data`; a run keeps its payload in the
// shared `run_bytes` arena at offset `data`.
struct PendingUpdate {
  Gva addr;
  std::uint32_t key;
  std::uint32_t len;
  std::uint64_t data;
};

struct FlushScratch {
  DedupTable dedup;
  std::vector<PendingUpdate> fields;  // svc::kUpdateFields lane
  std::vector<PendingUpdate> runs;    // svc::kUpdateRuns lane
  std::vector<std::byte> run_bytes;   // run payload arena, reset per flush

  // Payload bytes of a pending update of the given lane.
  const void* payload(const PendingUpdate& u, bool run) const {
    return run ? static_cast<const void*>(run_bytes.data() + u.data) : &u.data;
  }

  // Clears the lanes for a new flush without releasing capacity.
  void begin() {
    fields.clear();
    runs.clear();
    run_bytes.clear();
  }
};

}  // namespace hyp::dsm
