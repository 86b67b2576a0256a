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
// must track *recent* behavior, so this table keeps each node's access and
// miss counters per page, halved once per elapsed epoch. The fold is lazy:
// each slot carries the epoch its window was last touched in, and fold()
// shifts the decayed counters by the number of epochs that passed since —
// integer-only, so same-seed runs make byte-identical decisions.
//
// Layout: one table for every node, page-major. Node n's slot of page p sits
// at index (p << node_shift()) + n, where 1 << node_shift() is the smallest
// power of two >= the node count, so every node's slot of one page shares one
// or two OS pages (8 KB at 256 nodes): a page that all nodes touch commits its
// heat once, not one OS page per node. The trade-off: a page touched by one
// node alone commits a whole stride of slots.
//
// Hot-path discipline: the access fast paths bump a slot's raw tally
// directly, from the node's base slots(node) plus page << byte_shift() bytes
// (one shift, one indexed increment, host cost only — same contract as
// record_*); the raw tally is folded into the decayed window only on the miss
// cold path, where the switching decision is made anyway.
class WindowedHeat {
 public:
  // One (node, page)'s heat in one 32-byte slot.
  struct Slot {
    std::uint64_t raw = 0;    // accesses since the last fold
    std::uint64_t acc = 0;    // decayed access window
    std::uint64_t miss = 0;   // decayed miss window
    std::uint64_t stamp = 0;  // epoch of the last fold
  };
  static constexpr unsigned kSlotShift = 5;
  static_assert(sizeof(Slot) == std::size_t{1} << kSlotShift);

  // (Re)sizes for `total_pages` pages of `nodes` nodes and zeroes all heat.
  void init(std::size_t total_pages, int nodes) {
    node_shift_ = 0;
    while ((1 << node_shift_) < nodes) ++node_shift_;
    pages_ = total_pages;
    slots_.reset(total_pages << node_shift_);
  }

  // Node `node`'s base: its slot of page p lies p << byte_shift() bytes past
  // it. Cached on the access fast path (ThreadCtx::awin, ThreadCtx::awin_shift).
  Slot* slots(int node) { return slots_.data() + node; }
  unsigned node_shift() const { return node_shift_; }
  unsigned byte_shift() const { return node_shift_ + kSlotShift; }

  Slot& slot(int node, std::uint64_t page) { return slots_[(page << node_shift_) + node]; }
  const Slot& slot(int node, std::uint64_t page) const {
    return slots_[(page << node_shift_) + node];
  }

  // Folds node `node`'s raw tally of `page` into its decayed window, decaying
  // both counters by half per epoch elapsed since that slot was last folded.
  void fold(int node, std::uint64_t page, std::uint64_t epoch) {
    if (page >= pages_) return;
    Slot& s = slot(node, page);
    if (epoch > s.stamp) {
      const std::uint64_t shift = epoch - s.stamp < 63 ? epoch - s.stamp : 63;
      s.acc >>= shift;
      s.miss >>= shift;
      s.stamp = epoch;
    }
    s.acc += s.raw;
    s.raw = 0;
  }

  void note_miss(int node, std::uint64_t page, std::uint64_t epoch) {
    fold(node, page, epoch);
    if (page < pages_) ++slot(node, page).miss;
  }

  std::uint64_t accesses(int node, std::uint64_t page) const {
    return page < pages_ ? slot(node, page).acc : 0;
  }
  std::uint64_t misses(int node, std::uint64_t page) const {
    return page < pages_ ? slot(node, page).miss : 0;
  }

 private:
  // Lazily committed: the table pays for the pages some node touches.
  LazyArray<Slot> slots_;
  std::size_t pages_ = 0;
  unsigned node_shift_ = 0;
};

}  // namespace hyp::obs
