#include "dsm/node_dsm.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "sim/engine.hpp"

namespace hyp::dsm {

NodeDsm::NodeDsm(const Layout* layout, NodeId node)
    : layout_(layout),
      node_(node),
      presence_(layout->total_pages()),
      twins_(layout->total_pages()),
      alloc_next_(layout->zone_begin(node)) {
  // Pre-fold home-ness into the presence table, so the hot path never runs
  // the home_of_page division. Zones are page-aligned and the node is home to
  // exactly its own zone's pages; every other entry stays zero (absent).
  const auto first = static_cast<PageId>(layout->zone_begin(node) >> layout->page_shift());
  const auto last = static_cast<PageId>(layout->zone_end(node) >> layout->page_shift());
  std::memset(presence_.data() + first, kPresentBit | kHomeBit, last - first);
  void* mem = mmap(nullptr, layout_->total_bytes(), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  HYP_CHECK_MSG(mem != MAP_FAILED, "DSM arena mmap failed");
  arena_ = static_cast<std::byte*>(mem);
}

NodeDsm::~NodeDsm() {
  // Every twin belongs to a cached page (invalidate_all, promote_to_home and
  // demote_home drop a page's twin with its replica), so the cached list
  // reaches all of them without a scan of the page table.
  for (PageId p : cached_list_) drop_twin(p);
  HYP_CHECK_MSG(live_twins_ == 0, "a twin outlived its cached page");
  if (arena_ != nullptr) munmap(arena_, layout_->total_bytes());
}

void NodeDsm::snapshot_twin(PageId p) {
  auto* twin = new std::byte[layout_->page_bytes()];
  std::memcpy(twin, page_ptr(p), layout_->page_bytes());
  twins_[p] = twin;
  ++live_twins_;
}

void NodeDsm::drop_twin(PageId p) {
  if (twins_[p] == nullptr) return;
  delete[] twins_[p];
  twins_[p] = nullptr;
  --live_twins_;
}

void NodeDsm::mark_cached(PageId p, bool with_twin) {
  HYP_DCHECK(p < presence_.size());
  HYP_CHECK_MSG(!is_home(p), "home pages are never 'cached'");
  HYP_CHECK_MSG((presence_[p] & kPresentBit) == 0, "page already cached");
  presence_[p] |= kPresentBit;  // |= preserves a hybrid kIcModeBit
  cached_list_.push_back(p);
  if (with_twin) snapshot_twin(p);
}

std::size_t NodeDsm::invalidate_all() {
  const std::size_t dropped = cached_list_.size();
  for (PageId p : cached_list_) {
    // The hybrid mode bit survives invalidation (the page's learned detection
    // mode outlives the replica); for java_ic/java_pf the mask is a no-op.
    presence_[p] &= kIcModeBit;
    drop_twin(p);
  }
  cached_list_.clear();
  return dropped;
}

void NodeDsm::promote_to_home(PageId first, PageId last) {
  HYP_CHECK(first <= last && last <= presence_.size());
  // Drop cached-replica status for any page of the range first.
  cached_list_.erase(std::remove_if(cached_list_.begin(), cached_list_.end(),
                                    [first, last](PageId p) {
                                      return p >= first && p < last;
                                    }),
                     cached_list_.end());
  for (PageId p = first; p < last; ++p) {
    drop_twin(p);
    presence_[p] = kPresentBit | kHomeBit;
  }
}

void NodeDsm::demote_home(PageId first, PageId last) {
  HYP_CHECK(first <= last && last <= presence_.size());
  for (PageId p = first; p < last; ++p) {
    HYP_CHECK_MSG((presence_[p] & kHomeBit) != 0 || (presence_[p] & kPresentBit) == 0,
                  "demoting a page this node had cached");
    drop_twin(p);
    presence_[p] = ic_default_ ? kIcModeBit : 0;
  }
}

void NodeDsm::set_ic_default() {
  ic_default_ = true;
  for (PageId p = 0; p < presence_.size(); ++p) {
    if ((presence_[p] & kHomeBit) == 0) presence_[p] |= kIcModeBit;
  }
}

void NodeDsm::ensure_twin(PageId p) {
  HYP_DCHECK(p < twins_.size());
  if (twins_[p] == nullptr) snapshot_twin(p);
}

void NodeDsm::refresh_twin(PageId p) {
  HYP_CHECK(has_twin(p));
  std::memcpy(twins_[p], page_ptr(p), layout_->page_bytes());
}

Gva NodeDsm::alloc(std::size_t bytes, std::size_t align) {
  HYP_CHECK_MSG(align != 0 && (align & (align - 1)) == 0, "alignment must be a power of two");
  HYP_CHECK_MSG(bytes > 0, "zero-byte allocation");
  Gva at = (alloc_next_ + align - 1) & ~static_cast<Gva>(align - 1);
  HYP_CHECK_MSG(at + bytes <= layout_->zone_end(node_),
                "node allocation zone exhausted; enlarge the DSM region");
  alloc_next_ = at + bytes;
  return at;
}

bool NodeDsm::begin_fetch(PageId p, sim::Fiber* self) {
  (void)self;
  for (auto& f : inflight_) {
    if (f.page == p) return false;
  }
  inflight_.push_back({p, {}});
  return true;
}

void NodeDsm::wait_fetch(PageId p, sim::Fiber* self) {
  auto* eng = sim::Engine::current();
  while (true) {
    auto it = std::find_if(inflight_.begin(), inflight_.end(),
                           [p](const Inflight& f) { return f.page == p; });
    if (it == inflight_.end()) return;  // fetch completed
    it->waiters.push_back(self);
    eng->park();
  }
}

void NodeDsm::finish_fetch(PageId p) {
  auto it = std::find_if(inflight_.begin(), inflight_.end(),
                         [p](const Inflight& f) { return f.page == p; });
  HYP_CHECK(it != inflight_.end());
  auto* eng = sim::Engine::current();
  for (sim::Fiber* waiter : it->waiters) eng->unpark(waiter);
  inflight_.erase(it);
}

}  // namespace hyp::dsm
