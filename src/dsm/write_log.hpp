// Field-granularity write logging for ic-mode pages (every java_ic page,
// hybrid's ic-mode pages).
//
// Table 2 of the paper: "thanks to the put access primitives, the
// modifications can be recorded at the moment when they are carried out,
// with object-field granularity." Each entry captures address, width and the
// *value at put time* (the JMM working-memory copy), so a later cache
// invalidation cannot lose a pending store. updateMainMemory deduplicates
// the entries to last-writer-wins per field and ships them home as the
// kUpdateFields wire format below.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/buffer.hpp"
#include "dsm/address.hpp"

namespace hyp::dsm {

struct WriteLogEntry {
  Gva addr;
  std::uint8_t size;    // 1, 2, 4 or 8 bytes
  std::uint64_t value;  // low `size` bytes are meaningful
};

class WriteLog {
 public:
  void record(Gva addr, std::uint8_t size, std::uint64_t value) {
    HYP_DCHECK(size == 1 || size == 2 || size == 4 || size == 8);
    entries_.push_back({addr, size, value});
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }
  const std::vector<WriteLogEntry>& entries() const { return entries_; }

  // Wire format for one update message: u32 count, then per entry
  // (u64 addr, u8 size, `size` payload bytes). Shipping exactly `size`
  // bytes keeps kUpdateBytes and the bandwidth charge honest for 1/2/4-byte
  // fields — a fixed u64 payload would inflate both by up to 7 bytes per
  // entry.
  static void encode(Buffer* out, const std::vector<WriteLogEntry>& entries) {
    out->put<std::uint32_t>(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) {
      HYP_DCHECK(e.size == 1 || e.size == 2 || e.size == 4 || e.size == 8);
      out->put<std::uint64_t>(e.addr);
      out->put<std::uint8_t>(e.size);
      out->put_bytes(&e.value, e.size);  // low `size` bytes (host-endian wire)
    }
  }

  static std::vector<WriteLogEntry> decode(BufferReader& in) {
    const auto count = in.get<std::uint32_t>();
    std::vector<WriteLogEntry> entries;
    for (std::uint32_t i = 0; i < count; ++i) {
      WriteLogEntry e;
      e.addr = in.get<std::uint64_t>();
      e.size = in.get<std::uint8_t>();
      HYP_CHECK_MSG(e.size == 1 || e.size == 2 || e.size == 4 || e.size == 8,
                    "corrupt write-log entry size");
      e.value = 0;
      in.get_bytes(&e.value, e.size);
      entries.push_back(e);
    }
    return entries;
  }

 private:
  std::vector<WriteLogEntry> entries_;
};

}  // namespace hyp::dsm
