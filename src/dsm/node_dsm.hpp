// Per-node DSM state: the local arena and page metadata.
//
// Every node owns a full-size private mapping of the shared region
// (MAP_NORESERVE — pages are committed lazily by first touch, so twelve
// 256 MB arenas cost only what is actually used). A node's view of a page is
// one of:
//   * home page      — this node is the page's home; always valid, writes go
//                      straight to the reference ("central memory") copy;
//   * cached         — a replica fetched from the home (at most one per node,
//                      shared by all the node's threads, per the paper);
//   * absent         — any access must first load the page.
// A pf-mode replica (every java_pf replica, hybrid's pf-mode ones) is
// *twinned*: updateMainMemory diffs it against a pristine copy to find the
// modified words. The copy's bytes are taken at the replica's first local
// store, not at fetch (a replica that is only read has nothing to diff, so
// it costs no twin allocation, no copy and no scan); virtual time still
// charges the twin copy at fetch, as the paper's java_pf does.
//
// A node commits only what it holds. The per-page tables are lazily committed
// (common/lazy_array.hpp), a zero presence byte is a fresh page under every
// protocol, and a replica's bytes stop at its zone's allocation mark
// (DsmSystem::alloc_mark). Set-up and tear-down never scan the region.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/lazy_array.hpp"
#include "dsm/address.hpp"

namespace hyp::sim {
class Fiber;
}

namespace hyp::dsm {

class NodeDsm {
 public:
  // Presence-table byte per page: home pages are 3 (present|home), cached
  // replicas are 1 (present), absent pages are 0. Folding home-ness into the
  // same byte makes both hot-path questions — "can I touch this page?" and
  // "must I log this store?" — a single indexed load, replacing the integer
  // division inside Layout::home_of_page on every access (docs/PERFORMANCE.md).
  static constexpr std::uint8_t kPresentBit = 1;
  static constexpr std::uint8_t kHomeBit = 2;
  // hybrid protocol only: the non-home page runs pf-style bare access; clear
  // means ic-style checks (docs/PROTOCOLS.md §hybrid). A fresh or demoted
  // byte is 0, so non-home pages START in ic mode with no set-up sweep: first
  // touch costs one check, never a blind fault, and a dense page flips to pf
  // after one generation of window evidence. The bit survives invalidation (a
  // page's learned mode carries over to its next fetch); java_ic/java_pf
  // never set it.
  static constexpr std::uint8_t kPfModeBit = 4;
  // The page is a twinned (pf-mode) replica: the flush charges its diff, and
  // live_twins() counts it.
  static constexpr std::uint8_t kTwinBit = 8;
  // The twin's bytes exist (set by take_twin at the replica's first local
  // store); the twin slot is valid only while this is set. Without it the
  // replica holds no local store, so it is clean.
  static constexpr std::uint8_t kTwinBytesBit = 16;

  NodeDsm(const Layout* layout, NodeId node);
  ~NodeDsm();
  NodeDsm(const NodeDsm&) = delete;
  NodeDsm& operator=(const NodeDsm&) = delete;

  NodeId node() const { return node_; }
  const Layout& layout() const { return *layout_; }
  std::byte* arena() { return arena_; }
  const std::byte* arena() const { return arena_; }

  std::byte* page_ptr(PageId p) { return arena_ + layout_->page_base(p); }
  const std::byte* page_ptr(PageId p) const { return arena_ + layout_->page_base(p); }

  bool is_home(PageId p) const {
    HYP_DCHECK(p < presence_.size());
    return (presence_[p] & kHomeBit) != 0;
  }

  // A page is accessible when it is a home page or a valid cached copy.
  bool present(PageId p) const {
    HYP_DCHECK(p < presence_.size());
    return (presence_[p] & kPresentBit) != 0;
  }

  // Raw presence table, cached on ThreadCtx so the access fast paths skip
  // the NodeDsm indirection. The table never remaps after construction.
  const std::uint8_t* presence_data() const { return presence_.data(); }

  // Marks a freshly fetched page cached; `with_twin` makes it a twinned
  // (pf-mode) replica, whose bytes wait for its first store. The caller has
  // already copied the payload into the arena.
  void mark_cached(PageId p, bool with_twin);

  // Drops every cached page (monitor-entry invalidation). Returns how many
  // pages were dropped.
  std::size_t invalidate_all();

  bool has_twin(PageId p) const { return (presence_[p] & kTwinBit) != 0; }
  bool has_twin_bytes(PageId p) const { return (presence_[p] & kTwinBytesBit) != 0; }
  std::byte* twin(PageId p) {
    HYP_DCHECK(has_twin_bytes(p));
    return twins_[p];
  }
  // Twinned replicas, with or without bytes. Every twin belongs to a cached
  // page, which is what lets the destructor free them by walking the cached
  // list.
  std::size_t live_twins() const { return live_twins_; }

  // Twins a cached page that was fetched without one (hybrid mid-generation
  // ic -> pf flip). No-op if it is twinned already.
  void ensure_twin(PageId p);
  // Copies a present, twinned replica's bytes into its twin, before the
  // first local store lands.
  void take_twin(PageId p);
  // Refreshes the twin of a cached page to match the current arena contents
  // (after its diffs have been shipped home).
  void refresh_twin(PageId p);

  const std::vector<PageId>& cached_pages() const { return cached_list_; }

  // --- hybrid per-page detection mode (docs/PROTOCOLS.md §hybrid) ----------
  // Meaningful for non-home pages under hybrid only (DsmSystem::ic_mode).
  bool ic_mode(PageId p) const { return (presence_[p] & kPfModeBit) == 0; }
  void set_ic_mode(PageId p, bool ic) {
    if (ic) {
      presence_[p] &= static_cast<std::uint8_t>(~kPfModeBit);
    } else {
      presence_[p] |= kPfModeBit;
    }
  }

  // True while some fiber on this node has a fetch of `p` outstanding (the
  // hybrid mode decision defers to the fiber that started the fetch).
  bool fetch_inflight(PageId p) const {
    for (const auto& f : inflight_) {
      if (f.page == p) return true;
    }
    return false;
  }

  // --- high availability (docs/RECOVERY.md) --------------------------------
  // Takes home authority over [first, last): pages this node had cached stop
  // being replicas (their twins are dropped and they leave the cached list —
  // the arena bytes ARE now the reference copy), and every page in the range
  // becomes present|home. Called on the backup at promotion, after the dead
  // home's zone bytes have been realized into this arena.
  void promote_to_home(PageId first, PageId last);
  // Relinquishes home authority over [first, last): pages become absent and
  // fresh (a restarted node rejoins as a cacher; its copies are stale).
  void demote_home(PageId first, PageId last);

  // --- allocation (only meaningful on the page's home node's zone) ---
  // Bump allocation from this node's zone; 8-byte aligned by default.
  Gva alloc(std::size_t bytes, std::size_t align = 8);
  std::size_t allocated_bytes() const { return alloc_next_ - layout_->zone_begin(node_); }

  // --- in-flight fetch deduplication ---
  // Returns true if the calling fiber should perform the fetch; false means
  // another fiber on this node is already fetching and the caller must
  // wait_fetch().
  bool begin_fetch(PageId p);
  void wait_fetch(PageId p, sim::Fiber* self);
  void finish_fetch(PageId p);

 private:
  // Untwins page p, freeing its bytes if taken (no-op without kTwinBit, so
  // drop it before masking the byte), keeping live_twins_ in step.
  void drop_twin(PageId p);

  const Layout* layout_;
  NodeId node_;
  std::byte* arena_ = nullptr;
  LazyArray<std::uint8_t> presence_;  // indexed by page; see bits above
  std::vector<PageId> cached_list_;   // pages with presence_[p]==kPresentBit
  LazyArray<std::byte*> twins_;       // indexed by page; owning, valid iff kTwinBytesBit
  std::size_t live_twins_ = 0;
  Gva alloc_next_;

  struct Inflight {
    PageId page;
    std::vector<sim::Fiber*> waiters;
  };
  std::vector<Inflight> inflight_;
};

}  // namespace hyp::dsm
