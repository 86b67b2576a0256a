// LazyArray<T>: a fixed-size, zero-initialised array that costs memory only
// where it is written.
//
// Per-page tables (DSM presence and twins, page heat) are indexed by page id
// over the whole shared region, yet a node touches a small part of it. The
// backing is an anonymous MAP_NORESERVE mapping, like the DSM arenas: creating
// and destroying the array is O(1) in its size, the kernel commits one OS page
// on its first write, and reads of never-written entries see the shared zero
// page. Entries therefore start as all-zero bytes, so T must be a type for
// which that is a valid value (integers, raw pointers as null).
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace hyp {

template <typename T>
class LazyArray {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "LazyArray entries are raw zero-filled memory");

 public:
  LazyArray() = default;
  explicit LazyArray(std::size_t n) { reset(n); }
  ~LazyArray() { release(); }

  LazyArray(LazyArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)), size_(std::exchange(o.size_, 0)) {}
  LazyArray& operator=(LazyArray&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  LazyArray(const LazyArray&) = delete;
  LazyArray& operator=(const LazyArray&) = delete;

  // Drops the contents and maps `n` fresh zero entries.
  void reset(std::size_t n) {
    release();
    if (n == 0) return;
    void* mem = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    HYP_CHECK_MSG(mem != MAP_FAILED, "LazyArray mmap failed");
    data_ = static_cast<T*>(mem);
    size_ = n;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return data_; }
  const T* data() const { return data_; }

  T& operator[](std::size_t i) {
    HYP_DCHECK(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    HYP_DCHECK(i < size_);
    return data_[i];
  }

 private:
  void release() {
    if (data_ != nullptr) munmap(data_, size_ * sizeof(T));
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace hyp
