// Per-page protocol heat: fetches / faults / update-bytes by page.
//
// The §3.1 prefetch claim ("fetching a whole page prefetches the rest of its
// objects") and false sharing both live *below* the flat counters: a run with
// few fetches but one page absorbing most update traffic is a false-sharing
// run; a run whose fetches concentrate on consecutively allocated pages is
// the prefetch effect working. This table makes both visible per benchmark.
//
// Recording discipline: init() maps three flat lazily committed arrays (one
// slot per page of the shared region, common/lazy_array.hpp); record_*() is a
// bounds check plus an indexed add — no allocation, no clock access, no
// perturbation of virtual time.
// DsmSystem holds an optional pointer; detached cost is one pointer test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <vector>

#include "common/lazy_array.hpp"

namespace hyp::obs {

class PageHeatTable {
 public:
  struct Row {
    std::uint64_t page = 0;
    std::uint64_t fetches = 0;
    std::uint64_t faults = 0;
    std::uint64_t update_bytes = 0;
  };

  // (Re)sizes for a region of `total_pages` pages and zeroes all heat. The
  // only allocating call; record_*() never allocates.
  void init(std::size_t total_pages, std::size_t page_bytes) {
    fetches_.reset(total_pages);
    faults_.reset(total_pages);
    update_bytes_.reset(total_pages);
    page_bytes_ = page_bytes;
  }

  bool initialized() const { return !fetches_.empty(); }
  std::size_t total_pages() const { return fetches_.size(); }
  std::size_t page_bytes() const { return page_bytes_; }

  void record_fetch(std::uint64_t page) {
    if (page < fetches_.size()) ++fetches_[page];
  }
  void record_fault(std::uint64_t page) {
    if (page < faults_.size()) ++faults_[page];
  }
  void record_update(std::uint64_t page, std::uint64_t bytes) {
    if (page < update_bytes_.size()) update_bytes_[page] += bytes;
  }

  // Out-of-range pages read as 0 (mirroring the record_* guards): reading
  // heat after a region resize — or for a page id from a stale report — must
  // not index past the arrays.
  std::uint64_t fetches(std::uint64_t page) const {
    return page < fetches_.size() ? fetches_[page] : 0;
  }
  std::uint64_t faults(std::uint64_t page) const {
    return page < faults_.size() ? faults_[page] : 0;
  }
  std::uint64_t update_bytes(std::uint64_t page) const {
    return page < update_bytes_.size() ? update_bytes_[page] : 0;
  }

  // The `n` hottest pages, hottest first. Ordering: coherence events
  // (fetches + faults) descending, then update_bytes descending, then page
  // ascending — deterministic, so reports are diffable run-to-run. Pages
  // with zero activity are excluded (the table may return fewer than n).
  std::vector<Row> top(std::size_t n) const;

  // Pretty top-N report (plus a totals line) for terminal consumption.
  void write_report(std::ostream& os, std::size_t n) const;

 private:
  LazyArray<std::uint64_t> fetches_;
  LazyArray<std::uint64_t> faults_;
  LazyArray<std::uint64_t> update_bytes_;
  std::size_t page_bytes_ = 0;
};

// Windowed per-page heat with epoch decay — the decision signal of the
// `hybrid` protocol (docs/PROTOCOLS.md §hybrid).
//
// The flat PageHeatTable above accumulates run totals; switching decisions
// must track *recent* behavior, so this table keeps per-page access and miss
// counters that halve once per elapsed epoch. The fold is lazy: each page
// carries the epoch its window was last touched in, and fold() shifts the
// decayed counters by the number of epochs that passed since — integer-only,
// so same-seed runs make byte-identical decisions.
//
// Hot-path discipline: the access fast paths bump slots()[page].raw
// directly (one indexed increment, host cost only — same contract as
// record_*); the raw tally is folded into the decayed window only on the
// miss cold path, where the switching decision is made anyway.
class WindowedHeat {
 public:
  // One page's heat in one 32-byte slot: a touched page commits the OS page of
  // its slot, not one OS page per field.
  struct Slot {
    std::uint64_t raw = 0;    // accesses since the last fold
    std::uint64_t acc = 0;    // decayed access window
    std::uint64_t miss = 0;   // decayed miss window
    std::uint64_t stamp = 0;  // epoch of the last fold
  };

  void init(std::size_t total_pages) { slots_.reset(total_pages); }

  // Per-page slots, indexed by page; cached on the access fast path.
  Slot* slots() { return slots_.data(); }

  // Folds the raw tally into the decayed window, decaying both counters by
  // half per epoch elapsed since the page was last folded.
  void fold(std::uint64_t page, std::uint64_t epoch) {
    if (page >= slots_.size()) return;
    Slot& s = slots_[page];
    if (epoch > s.stamp) {
      const std::uint64_t shift = epoch - s.stamp < 63 ? epoch - s.stamp : 63;
      s.acc >>= shift;
      s.miss >>= shift;
      s.stamp = epoch;
    }
    s.acc += s.raw;
    s.raw = 0;
  }

  void note_miss(std::uint64_t page, std::uint64_t epoch) {
    fold(page, epoch);
    if (page < slots_.size()) ++slots_[page].miss;
  }

  std::uint64_t accesses(std::uint64_t page) const {
    return page < slots_.size() ? slots_[page].acc : 0;
  }
  std::uint64_t misses(std::uint64_t page) const {
    return page < slots_.size() ? slots_[page].miss : 0;
  }

 private:
  // Lazily committed: a node pays only for the pages its threads touch.
  LazyArray<Slot> slots_;
};

}  // namespace hyp::obs
