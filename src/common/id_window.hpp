// IdWindow: a set of u64 ids kept as a bitmap over its live span.
//
// The lossy transport and the monitor op-id layer above it remember ids that
// are dense within a moving window: packet seqs above a receive watermark and
// the monitor op ids a home has applied. For such ids one bit of the span
// between the smallest and largest member costs far less than a node per id,
// and needs no allocation per id.
//
// The bitmap is a ring of 64-bit words whose first live word holds the
// smallest member; base_ is the id of that word's bit 0. Erasing the
// smallest members drops the words that fall empty, so a window sliding
// forward stays as long as its live span. Spans of up to kInlineWords words
// live inside the object; longer ones move to a heap ring of power-of-two
// size, released when the window becomes empty, so an empty window owns no
// heap memory. insert, erase and contains are O(1) for ids near the live
// span, amortized over ring growth.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hyp {

class IdWindow {
 public:
  IdWindow() = default;
  ~IdWindow() { release_heap(); }
  IdWindow(const IdWindow&) = delete;
  IdWindow& operator=(const IdWindow&) = delete;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  // Words of heap ring owned; zero while the window is empty or inline.
  std::size_t capacity() const { return on_heap() ? cap_ : 0; }

  bool contains(std::uint64_t id) const {
    if (count_ == 0 || id < base_) return false;
    const std::uint64_t w = (id - base_) >> 6;
    return w < len_ && ((word(static_cast<std::uint32_t>(w)) >> (id & 63)) & 1) != 0;
  }

  // Returns false when `id` was already a member.
  bool insert(std::uint64_t id) {
    std::uint64_t& w = slot(id);
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((w & bit) != 0) return false;
    w |= bit;
    ++count_;
    return true;
  }

  // Returns false when `id` was not a member.
  bool erase(std::uint64_t id) {
    if (!contains(id)) return false;
    const auto w = static_cast<std::uint32_t>((id - base_) >> 6);
    word(w) &= ~(std::uint64_t{1} << (id & 63));
    --count_;
    if (w == 0) drop_leading_zero_words();
    return true;
  }

  // Set union: every member of `other` becomes a member of this window.
  void merge(const IdWindow& other) {
    for (std::uint32_t i = 0; i < other.len_; ++i) {
      const std::uint64_t bits = other.word(i);
      if (bits == 0) continue;
      std::uint64_t& w = slot(other.base_ + 64 * std::uint64_t{i});
      count_ += static_cast<std::size_t>(std::popcount(bits & ~w));
      w |= bits;
    }
  }

 private:
  static constexpr std::uint32_t kInlineWords = 2;

  bool on_heap() const { return heap_ != nullptr; }
  std::uint64_t* ring() { return on_heap() ? heap_ : inline_; }
  const std::uint64_t* ring() const { return on_heap() ? heap_ : inline_; }
  // Logical word i of the live span (0 holds the smallest member).
  std::uint64_t& word(std::uint32_t i) { return ring()[(head_ + i) & (cap_ - 1)]; }
  std::uint64_t word(std::uint32_t i) const { return ring()[(head_ + i) & (cap_ - 1)]; }

  // The word holding `id`'s bit, widening the live span to reach it.
  std::uint64_t& slot(std::uint64_t id) {
    const std::uint64_t id_base = id & ~std::uint64_t{63};
    if (len_ == 0) {
      base_ = id_base;
      head_ = 0;
      len_ = 1;
    } else if (id_base < base_) {
      const auto extra = static_cast<std::uint32_t>((base_ - id_base) >> 6);
      reserve(len_ + extra);
      head_ = (head_ - extra) & (cap_ - 1);
      len_ += extra;
      base_ = id_base;
      for (std::uint32_t i = 0; i < extra; ++i) word(i) = 0;
    } else if (const std::uint64_t w = (id_base - base_) >> 6; w >= len_) {
      const auto end = static_cast<std::uint32_t>(w + 1);
      reserve(end);
      for (std::uint32_t i = len_; i < end; ++i) word(i) = 0;
      len_ = end;
    }
    return word(static_cast<std::uint32_t>((id_base - base_) >> 6));
  }

  // Grows the ring to hold `words` live words, unrolling it to head 0.
  void reserve(std::uint32_t words) {
    if (words <= cap_) return;
    const std::uint32_t cap = std::bit_ceil(words);
    auto* grown = new std::uint64_t[cap];
    for (std::uint32_t i = 0; i < len_; ++i) grown[i] = word(i);
    release_heap();
    heap_ = grown;
    cap_ = cap;
    head_ = 0;
  }

  void drop_leading_zero_words() {
    if (count_ == 0) {
      // Nothing live: hand the heap ring back and restart inline.
      release_heap();
      cap_ = kInlineWords;
      std::memset(inline_, 0, sizeof(inline_));
      head_ = 0;
      len_ = 0;
      return;
    }
    while (word(0) == 0) {
      head_ = (head_ + 1) & (cap_ - 1);
      --len_;
      base_ += 64;
    }
  }

  void release_heap() {
    delete[] heap_;
    heap_ = nullptr;
  }

  std::uint64_t base_ = 0;   // id of bit 0 of word(0)
  std::size_t count_ = 0;    // members
  std::uint32_t cap_ = kInlineWords;  // ring words, a power of two
  std::uint32_t head_ = 0;   // ring index of word(0)
  std::uint32_t len_ = 0;    // live words
  std::uint64_t* heap_ = nullptr;  // the ring once it outgrows inline_
  std::uint64_t inline_[kInlineWords] = {};
};

}  // namespace hyp
