#include "common/buffer.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <vector>

namespace hyp {
namespace {

TEST(Buffer, RoundTripsScalars) {
  Buffer b;
  b.put<std::uint32_t>(0xdeadbeef);
  b.put<double>(3.5);
  b.put<std::int8_t>(-7);
  EXPECT_EQ(b.size(), 4u + 8u + 1u);

  BufferReader r(b);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(r.get<double>(), 3.5);
  EXPECT_EQ(r.get<std::int8_t>(), -7);
  EXPECT_TRUE(r.done());
}

TEST(Buffer, RoundTripsStringsAndBytes) {
  Buffer b;
  b.put_string("hello");
  const char raw[] = {1, 2, 3};
  b.put_bytes(raw, sizeof(raw));

  BufferReader r(b);
  EXPECT_EQ(r.get_string(), "hello");
  char out[3];
  r.get_bytes(out, sizeof(out));
  EXPECT_EQ(0, std::memcmp(raw, out, 3));
  EXPECT_TRUE(r.done());
}

TEST(Buffer, EmptyStringRoundTrips) {
  Buffer b;
  b.put_string("");
  BufferReader r(b);
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.done());
}

TEST(Buffer, GetSpanBorrowsInPlace) {
  Buffer b;
  b.put<std::uint64_t>(42);
  b.put<std::uint64_t>(43);
  BufferReader r(b);
  auto s = r.get_span(8);
  std::uint64_t v;
  std::memcpy(&v, s.data(), 8);
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(r.remaining(), 8u);
}

TEST(BufferDeath, UnderrunAborts) {
  Buffer b;
  b.put<std::uint16_t>(1);
  BufferReader r(b);
  (void)r.get<std::uint16_t>();
  EXPECT_DEATH((void)r.get<std::uint8_t>(), "buffer underrun");
}

TEST(Buffer, PutBytesAppendsAPageVerbatim) {
  std::vector<std::byte> page(4096);
  for (std::size_t i = 0; i < page.size(); ++i) page[i] = static_cast<std::byte>(i * 7 + 3);
  Buffer b;
  b.put<std::uint32_t>(9);
  b.put_bytes(page.data(), page.size());
  b.put_bytes(page.data(), 0);
  ASSERT_EQ(b.size(), 4u + page.size());
  EXPECT_EQ(0, std::memcmp(b.data() + 4, page.data(), page.size()));

  // A moved-from buffer keeps no backing; destroying it leaves the pool as is.
  Buffer moved = std::move(b);
  const std::size_t pooled = detail::ByteVecPool::local().pooled();
  b = Buffer();
  EXPECT_EQ(detail::ByteVecPool::local().pooled(), pooled);
  EXPECT_EQ(moved.size(), 4u + page.size());
}

TEST(Buffer, ReserveDoesNotChangeSize) {
  Buffer b(1024);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
}

}  // namespace
}  // namespace hyp
