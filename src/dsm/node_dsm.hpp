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
// java_pf additionally keeps a *twin* (pristine copy at fetch time) per
// cached page so updateMainMemory can diff out the modified words.
//
// The per-page tables are lazily committed (common/lazy_array.hpp): set-up
// and tear-down follow the node's own zone and live twins, never the region
// size, so a node pays only for the pages it touches.
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
  // hybrid protocol only: this node currently runs ic-style inline checks for
  // the page (docs/PROTOCOLS.md §hybrid). The bit survives invalidation — a
  // page's learned detection mode carries over to its next fetch — and is
  // never set under java_ic/java_pf, keeping their presence bytes identical.
  // Under hybrid (set_ic_default) non-home pages START with the bit set:
  // checks are compiled in anyway, so first touch costs one check, never a
  // blind fault — sparse pages pay no learning penalty at all, and a dense
  // page flips to pf after one generation of window evidence.
  static constexpr std::uint8_t kIcModeBit = 4;

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

  // Marks a freshly fetched page cached. `with_twin` snapshots a twin
  // (java_pf). The caller has already copied the payload into the arena.
  void mark_cached(PageId p, bool with_twin);

  // Drops every cached page (monitor-entry invalidation). Returns how many
  // pages were dropped.
  std::size_t invalidate_all();

  bool has_twin(PageId p) const { return p < twins_.size() && twins_[p] != nullptr; }
  std::byte* twin(PageId p) {
    HYP_DCHECK(p < twins_.size());
    return twins_[p];
  }
  // Twins currently allocated. Every twin belongs to a cached page, which is
  // what lets the destructor free them by walking the cached list.
  std::size_t live_twins() const { return live_twins_; }

  // Snapshots a twin of a cached page that was fetched without one (hybrid
  // mid-generation ic -> pf flip). No-op if the twin already exists.
  void ensure_twin(PageId p);
  // Refreshes the twin of a cached page to match the current arena contents
  // (after its diffs have been shipped home).
  void refresh_twin(PageId p);

  const std::vector<PageId>& cached_pages() const { return cached_list_; }

  // --- hybrid per-page detection mode (docs/PROTOCOLS.md §hybrid) ----------
  bool ic_mode(PageId p) const {
    HYP_DCHECK(p < presence_.size());
    return (presence_[p] & kIcModeBit) != 0;
  }
  void set_ic_mode(PageId p, bool ic) {
    HYP_DCHECK(p < presence_.size());
    if (ic) {
      presence_[p] |= kIcModeBit;
    } else {
      presence_[p] &= static_cast<std::uint8_t>(~kIcModeBit);
    }
  }
  // hybrid init: every non-home page starts in ic mode, and pages demoted
  // from home authority later (migration handoff, HA failover) rejoin in ic
  // mode too instead of pf.
  void set_ic_default();

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
  // Relinquishes home authority over [first, last): pages become absent (a
  // restarted node rejoins as a cacher; its pre-crash copies are stale).
  void demote_home(PageId first, PageId last);

  // --- allocation (only meaningful on the page's home node's zone) ---
  // Bump allocation from this node's zone; 8-byte aligned by default.
  Gva alloc(std::size_t bytes, std::size_t align = 8);
  std::size_t allocated_bytes() const { return alloc_next_ - layout_->zone_begin(node_); }

  // --- in-flight fetch deduplication ---
  // Returns true if this fiber should perform the fetch; false means another
  // fiber on this node is already fetching and the caller must wait_fetch().
  bool begin_fetch(PageId p, sim::Fiber* self);
  void wait_fetch(PageId p, sim::Fiber* self);
  void finish_fetch(PageId p);

 private:
  // Allocate page p's twin as a copy of its arena bytes / free it (no-op
  // without one), keeping live_twins_ in step.
  void snapshot_twin(PageId p);
  void drop_twin(PageId p);

  const Layout* layout_;
  NodeId node_;
  bool ic_default_ = false;  // hybrid: demoted/fresh non-home pages start ic
  std::byte* arena_ = nullptr;
  LazyArray<std::uint8_t> presence_;  // indexed by page; see bits above
  std::vector<PageId> cached_list_;   // pages with presence_[p]==kPresentBit
  LazyArray<std::byte*> twins_;       // indexed by page; owning, null = no twin
  std::size_t live_twins_ = 0;
  Gva alloc_next_;

  struct Inflight {
    PageId page;
    std::vector<sim::Fiber*> waiters;
  };
  std::vector<Inflight> inflight_;
};

}  // namespace hyp::dsm
