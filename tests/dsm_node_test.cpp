#include "dsm/node_dsm.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "dsm/write_log.hpp"

namespace hyp::dsm {
namespace {

class NodeDsmTest : public ::testing::Test {
 protected:
  NodeDsmTest() : layout_(1 << 20, 4096, 4), nd_(&layout_, 1) {}
  Layout layout_;
  NodeDsm nd_;  // node 1 owns pages 64..127
};

TEST_F(NodeDsmTest, HomePagesAlwaysPresent) {
  EXPECT_TRUE(nd_.is_home(64));
  EXPECT_TRUE(nd_.present(64));
  EXPECT_FALSE(nd_.is_home(0));
  EXPECT_FALSE(nd_.present(0));
}

TEST_F(NodeDsmTest, MarkCachedMakesPagePresent) {
  nd_.mark_cached(0, /*with_twin=*/false);
  EXPECT_TRUE(nd_.present(0));
  EXPECT_FALSE(nd_.has_twin(0));
  EXPECT_EQ(nd_.cached_pages().size(), 1u);
}

// A twinned replica's bytes are taken at its first local store, not when it
// is cached: until then the twin has no bytes to compare.
TEST_F(NodeDsmTest, TwinSnapshotsPageContents) {
  std::memset(nd_.page_ptr(0), 0xAB, 4096);
  nd_.mark_cached(0, /*with_twin=*/true);
  ASSERT_TRUE(nd_.has_twin(0));
  EXPECT_FALSE(nd_.has_twin_bytes(0));
  nd_.take_twin(0);  // the first store's turn
  ASSERT_TRUE(nd_.has_twin_bytes(0));
  EXPECT_EQ(0, std::memcmp(nd_.twin(0), nd_.page_ptr(0), 4096));
  // Later writes diverge from the twin until refreshed.
  nd_.page_ptr(0)[100] = std::byte{0x01};
  EXPECT_NE(0, std::memcmp(nd_.twin(0), nd_.page_ptr(0), 4096));
  nd_.refresh_twin(0);
  EXPECT_EQ(0, std::memcmp(nd_.twin(0), nd_.page_ptr(0), 4096));
}

TEST_F(NodeDsmTest, InvalidateAllDropsCachesAndTwins) {
  nd_.mark_cached(0, true);
  nd_.mark_cached(1, true);
  EXPECT_EQ(nd_.invalidate_all(), 2u);
  EXPECT_FALSE(nd_.present(0));
  EXPECT_FALSE(nd_.present(1));
  EXPECT_FALSE(nd_.has_twin(0));
  EXPECT_TRUE(nd_.cached_pages().empty());
  // Home pages survive invalidation.
  EXPECT_TRUE(nd_.present(64));
}

TEST_F(NodeDsmTest, ReCachingAfterInvalidationWorks) {
  nd_.mark_cached(0, false);
  nd_.invalidate_all();
  nd_.mark_cached(0, false);
  EXPECT_TRUE(nd_.present(0));
}

TEST_F(NodeDsmTest, AllocBumpsWithinZone) {
  const Gva a = nd_.alloc(16);
  const Gva b = nd_.alloc(16);
  EXPECT_GE(a, layout_.zone_begin(1));
  EXPECT_LT(b + 16, layout_.zone_end(1));
  EXPECT_EQ(b, a + 16);
  EXPECT_EQ(layout_.home_of(a), 1);
}

TEST_F(NodeDsmTest, AllocRespectsAlignment) {
  nd_.alloc(3);
  const Gva a = nd_.alloc(8, 64);
  EXPECT_EQ(a % 64, 0u);
  const Gva b = nd_.alloc(1, 1);
  nd_.alloc(8);  // default 8-byte alignment
  EXPECT_EQ(nd_.alloc(8) % 8, 0u);
  (void)b;
}

TEST_F(NodeDsmTest, AllocatedBytesTracksUsage) {
  EXPECT_EQ(nd_.allocated_bytes(), 0u);
  nd_.alloc(100);
  EXPECT_GE(nd_.allocated_bytes(), 100u);
}

TEST_F(NodeDsmTest, ZoneExhaustionAborts) {
  // Node 1's zone is 64 pages = 256 KiB.
  nd_.alloc(256 * 1024 - 8);
  EXPECT_DEATH(nd_.alloc(64), "zone exhausted");
}

TEST_F(NodeDsmTest, DoubleCacheAborts) {
  nd_.mark_cached(0, false);
  EXPECT_DEATH(nd_.mark_cached(0, false), "already cached");
}

TEST_F(NodeDsmTest, CachingHomePageAborts) {
  EXPECT_DEATH(nd_.mark_cached(64, false), "never 'cached'");
}

// Twin bytes exist only for a present, twinned replica, and only once.
TEST_F(NodeDsmTest, TwinBytesOfAnAbsentUntwinnedOrTakenPageAbort) {
  EXPECT_DEATH(nd_.take_twin(0), "not a present, twinned replica");  // absent
  EXPECT_DEATH(nd_.take_twin(64), "not a present, twinned replica");  // home
  nd_.mark_cached(0, /*with_twin=*/false);
  EXPECT_DEATH(nd_.take_twin(0), "not a present, twinned replica");  // ic-mode replica
  nd_.mark_cached(1, /*with_twin=*/true);
  nd_.take_twin(1);
  EXPECT_DEATH(nd_.take_twin(1), "not a present, twinned replica");  // taken already
}

// The constructor folds home-ness over the node's own zone only; the fold must
// agree with Layout::home_of_page everywhere, including the remainder tail
// that belongs to the last node.
TEST(NodeDsmHomeFold, PresenceMatchesLayoutHomeOfEveryPage) {
  const Layout layout(67 * 4096, 4096, 4);  // 16 pages per zone, 3-page tail
  for (NodeId n = 0; n < 4; ++n) {
    const NodeDsm nd(&layout, n);
    for (PageId p = 0; p < layout.total_pages(); ++p) {
      EXPECT_EQ(nd.is_home(p), layout.home_of_page(p) == n) << "node " << n << " page " << p;
      EXPECT_EQ(nd.present(p), nd.is_home(p));
    }
  }
}

TEST_F(NodeDsmTest, LiveTwinsFollowTheirCachedPages) {
  nd_.mark_cached(0, true);
  nd_.mark_cached(1, true);
  nd_.mark_cached(2, false);
  EXPECT_EQ(nd_.live_twins(), 2u);
  nd_.ensure_twin(2);  // hybrid ic -> pf flip of a cached page
  EXPECT_EQ(nd_.live_twins(), 3u);
  EXPECT_FALSE(nd_.has_twin_bytes(2));
  nd_.take_twin(1);
  nd_.promote_to_home(1, 2);  // the page becomes home: its twin goes
  EXPECT_EQ(nd_.live_twins(), 2u);
  EXPECT_FALSE(nd_.has_twin(1));
  EXPECT_FALSE(nd_.has_twin_bytes(1));
  nd_.take_twin(0);
  nd_.invalidate_all();
  EXPECT_EQ(nd_.live_twins(), 0u);
  EXPECT_FALSE(nd_.has_twin_bytes(0));
  // Twins left on cached pages are freed by the destructor (fixture teardown).
  nd_.mark_cached(3, true);
  nd_.mark_cached(4, true);
  nd_.take_twin(4);
  EXPECT_EQ(nd_.live_twins(), 2u);
}

TEST(WriteLog, RecordAndClear) {
  WriteLog log;
  EXPECT_TRUE(log.empty());
  log.record(100, 4, 0xdeadbeef);
  log.record(200, 8, 0x0123456789abcdefull);
  EXPECT_EQ(log.size(), 2u);
  log.clear();
  EXPECT_TRUE(log.empty());
}

TEST(WriteLog, EncodeDecodeRoundTrip) {
  std::vector<WriteLogEntry> entries = {
      {100, 4, 0xdeadbeef},
      {208, 8, 0x0123456789abcdefull},
      {305, 1, 0x7f},
  };
  Buffer buf;
  WriteLog::encode(&buf, entries);
  BufferReader reader(buf);
  auto decoded = WriteLog::decode(reader);
  ASSERT_EQ(decoded.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded[i].addr, entries[i].addr);
    EXPECT_EQ(decoded[i].size, entries[i].size);
    EXPECT_EQ(decoded[i].value, entries[i].value);
  }
  EXPECT_TRUE(reader.done());
}

}  // namespace
}  // namespace hyp::dsm
