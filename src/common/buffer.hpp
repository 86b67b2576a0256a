// Byte buffers used as RPC message payloads.
//
// Messages in the simulated cluster (and the native backend) carry real
// serialized bytes rather than closures-with-pointers wherever data crosses
// "the network": this keeps the simulation honest about message sizes (the
// bandwidth model charges Buffer::size()) and catches protocol bugs that a
// shared-pointer shortcut would hide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace hyp {

namespace detail {

// Recycles byte-vector backings between Buffer lifetimes so the steady-state
// RPC path (request out, page/ack back, millions of times per run) stops
// hitting the allocator once capacities warm up (docs/PERFORMANCE.md).
// thread_local because the native backend runs real std::threads; capacity
// handed back on a different thread simply lands in that thread's pool.
// Pooling changes capacity provenance only — never a buffer's size or
// contents — so simulated message sizes and timings are untouched.
class ByteVecPool {
 public:
  std::vector<std::byte> acquire() {
    if (!free_.empty()) {
      std::vector<std::byte> v = std::move(free_.back());
      free_.pop_back();
      v.clear();
      return v;
    }
    return {};
  }

  void release(std::vector<std::byte>&& v) {
    if (v.capacity() == 0) return;  // nothing worth keeping
    if (free_.size() < kMaxPooled) free_.push_back(std::move(v));
  }

  std::size_t pooled() const { return free_.size(); }

  static ByteVecPool& local() {
    thread_local ByteVecPool pool;
    return pool;
  }

 private:
  // Enough for the deepest in-flight fan-out we see (per-home updates on a
  // 12-node cluster plus nested replies); beyond this, just free.
  static constexpr std::size_t kMaxPooled = 64;
  std::vector<std::vector<std::byte>> free_;
};

}  // namespace detail

class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::size_t reserve_bytes) {
    bytes_ = detail::ByteVecPool::local().acquire();
    bytes_.reserve(reserve_bytes);
  }

  // A moved-from buffer owns no capacity, and the pool would drop it anyway:
  // only a backing worth keeping pays the thread-local pool lookup.
  Buffer(Buffer&& other) noexcept = default;
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      if (bytes_.capacity() != 0) detail::ByteVecPool::local().release(std::move(bytes_));
      bytes_ = std::move(other.bytes_);
    }
    return *this;
  }
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  ~Buffer() {
    if (bytes_.capacity() != 0) detail::ByteVecPool::local().release(std::move(bytes_));
  }

  std::size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }
  const std::byte* data() const { return bytes_.data(); }
  std::byte* data() { return bytes_.data(); }
  void clear() { bytes_.clear(); }

  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = grow(sizeof(T));
    std::memcpy(bytes_.data() + at, &value, sizeof(T));
  }

  // Appends with one copy: no zero-fill of the new bytes before the memcpy.
  void put_bytes(const void* src, std::size_t n) {
    adopt_pooled();
    const auto* first = static_cast<const std::byte*>(src);
    bytes_.insert(bytes_.end(), first, first + n);
  }

  void put_string(const std::string& s) {
    put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    put_bytes(s.data(), s.size());
  }

  std::span<const std::byte> span() const { return {bytes_.data(), bytes_.size()}; }

 private:
  void adopt_pooled() {
    if (bytes_.capacity() == 0) bytes_ = detail::ByteVecPool::local().acquire();
  }
  // Extends the buffer by n bytes, adopting a pooled backing on first write.
  std::size_t grow(std::size_t n) {
    adopt_pooled();
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    return at;
  }

  std::vector<std::byte> bytes_;
};

// Sequential reader over a Buffer (or any byte span). Reads are
// bounds-checked: a malformed message aborts rather than reading garbage.
class BufferReader {
 public:
  explicit BufferReader(const Buffer& buf) : data_(buf.data()), size_(buf.size()) {}
  explicit BufferReader(std::span<const std::byte> bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    HYP_CHECK_MSG(pos_ + sizeof(T) <= size_, "buffer underrun");
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  void get_bytes(void* dst, std::size_t n) {
    HYP_CHECK_MSG(pos_ + n <= size_, "buffer underrun");
    if (n != 0) std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }

  std::string get_string() {
    const auto n = get<std::uint32_t>();
    std::string s(n, '\0');
    get_bytes(s.data(), n);
    return s;
  }

  // Borrow n bytes in place (valid while the underlying buffer lives).
  std::span<const std::byte> get_span(std::size_t n) {
    HYP_CHECK_MSG(pos_ + n <= size_, "buffer underrun");
    std::span<const std::byte> out{data_ + pos_, n};
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace hyp
