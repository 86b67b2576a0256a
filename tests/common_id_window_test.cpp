// IdWindow (common/id_window.hpp) checked against std::set<std::uint64_t>,
// the structure it replaces in the lossy transport and the monitor op-id
// layer: seeded random sequences of insert, contains, erase (of the smallest
// member, too) and merge over ids arriving in order, out of order, below the
// window's base and after a permanent hole.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/id_window.hpp"
#include "common/rng.hpp"

namespace hyp {
namespace {

using Ref = std::set<std::uint64_t>;

// Asserts `w` holds exactly the members of `ref`, probing every id from a
// little below the smallest member to a little past the largest.
void expect_same(const IdWindow& w, const Ref& ref) {
  ASSERT_EQ(w.size(), ref.size());
  ASSERT_EQ(w.empty(), ref.empty());
  if (ref.empty()) {
    ASSERT_EQ(w.capacity(), 0u);
    for (std::uint64_t id : {0ull, 1ull, 63ull, 64ull, 1000ull}) ASSERT_FALSE(w.contains(id));
    return;
  }
  const std::uint64_t lo = *ref.begin() > 130 ? *ref.begin() - 130 : 0;
  for (std::uint64_t id = lo; id <= *ref.rbegin() + 130; ++id) {
    ASSERT_EQ(w.contains(id), ref.count(id) != 0) << "id " << id;
  }
}

enum class Arrival { kInOrder, kOutOfOrder, kBelowBase, kAfterHole };

std::string arrival_name(Arrival a) {
  switch (a) {
    case Arrival::kInOrder: return "InOrder";
    case Arrival::kOutOfOrder: return "OutOfOrder";
    case Arrival::kBelowBase: return "BelowBase";
    case Arrival::kAfterHole: return "AfterHole";
  }
  return "?";
}

// The next id a stream of the given shape produces. `cursor` is the
// stream's position; a hole stream never produces `kHole`.
constexpr std::uint64_t kHole = 1000;
std::uint64_t next_id(Arrival a, Rng& rng, std::uint64_t& cursor, const Ref& ref) {
  switch (a) {
    case Arrival::kInOrder:
      return cursor++;
    case Arrival::kOutOfOrder: {
      const std::uint64_t id = cursor + rng.below(300);
      cursor += rng.below(3);
      return id;
    }
    case Arrival::kBelowBase:
      if (!ref.empty() && rng.below(3) == 0) {
        const std::uint64_t m = *ref.begin();
        return m - std::min<std::uint64_t>(m, 1 + rng.below(400));
      }
      cursor += rng.below(40);
      return cursor;
    case Arrival::kAfterHole: {
      std::uint64_t id = cursor + rng.below(80);
      if (id == kHole) ++id;
      ++cursor;
      return id;
    }
  }
  return 0;
}

class IdWindowDifferential : public ::testing::TestWithParam<Arrival> {};

TEST_P(IdWindowDifferential, MatchesStdSetUnderRandomOps) {
  const Arrival shape = GetParam();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(shape));
    IdWindow w;
    Ref ref;
    std::uint64_t cursor = shape == Arrival::kAfterHole ? kHole - 40 : 5;
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 55) {
        const std::uint64_t id = next_id(shape, rng, cursor, ref);
        ASSERT_EQ(w.insert(id), ref.insert(id).second) << "insert " << id;
      } else if (op < 70) {
        const std::uint64_t id = next_id(shape, rng, cursor, ref);
        ASSERT_EQ(w.contains(id), ref.count(id) != 0) << "contains " << id;
      } else if (op < 85) {
        // Erase a member half the time, an arbitrary id otherwise.
        std::uint64_t id = next_id(shape, rng, cursor, ref);
        if (!ref.empty() && rng.below(2) == 0) {
          auto it = ref.lower_bound(*ref.begin() + rng.below(*ref.rbegin() - *ref.begin() + 1));
          id = *it;
        }
        ASSERT_EQ(w.erase(id), ref.erase(id) != 0) << "erase " << id;
      } else if (op < 95) {
        // Erasing the smallest member drops the words that fall empty.
        if (!ref.empty()) {
          ASSERT_TRUE(w.erase(*ref.begin()));
          ref.erase(ref.begin());
        }
      } else {
        IdWindow other;
        Ref other_ref;
        std::uint64_t other_cursor = cursor > 500 ? cursor - rng.below(500) : cursor;
        for (std::uint64_t i = 0, n = rng.below(200); i < n; ++i) {
          const std::uint64_t id = next_id(shape, rng, other_cursor, other_ref);
          other.insert(id);
          other_ref.insert(id);
        }
        w.merge(other);
        ref.insert(other_ref.begin(), other_ref.end());
        expect_same(other, other_ref);  // merge leaves its argument alone
      }
      if (shape == Arrival::kAfterHole) {
        ASSERT_FALSE(w.contains(kHole));
      }
      if (step % 97 == 0) {
        ASSERT_NO_FATAL_FAILURE(expect_same(w, ref)) << "step " << step;
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(w, ref));
    while (!ref.empty()) {
      ASSERT_TRUE(w.erase(*ref.begin()));
      ref.erase(ref.begin());
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(w, ref));
  }
}

INSTANTIATE_TEST_SUITE_P(Arrivals, IdWindowDifferential,
                         ::testing::Values(Arrival::kInOrder, Arrival::kOutOfOrder,
                                           Arrival::kBelowBase, Arrival::kAfterHole),
                         [](const ::testing::TestParamInfo<Arrival>& param_info) {
                           return arrival_name(param_info.param);
                         });

// The transport's receive window, run both ways over the same arrivals:
// the std::set original and the IdWindow form. Every duplicate verdict and
// every watermark must agree.
TEST(IdWindow, ReceiveWindowDecisionsMatchTheSetFormulation) {
  Rng rng(3);
  std::uint64_t wm_set = 0;
  std::uint64_t wm_win = 0;
  Ref seen_set;
  IdWindow seen_win;
  // Seqs in flight arrive in random order; one in ten arrivals repeats a
  // recent seq instead. Seq 777 is given up by the sender: it never
  // arrives, a permanent hole.
  std::vector<std::uint64_t> in_flight;
  std::uint64_t next = 0;
  for (int i = 0; i < 60000; ++i) {
    while (in_flight.size() < 6) {
      if (next != 777) in_flight.push_back(next);
      ++next;
    }
    std::uint64_t seq;
    if (rng.below(10) == 0) {
      seq = next - 1 - rng.below(std::min<std::uint64_t>(next, 50));
      if (seq == 777) continue;
    } else {
      const std::size_t k = rng.below(in_flight.size());
      seq = in_flight[k];
      in_flight[k] = in_flight.back();
      in_flight.pop_back();
    }

    const bool dup_set = seq < wm_set || seen_set.count(seq) != 0;
    const bool dup_win = seq < wm_win || seen_win.contains(seq);
    ASSERT_EQ(dup_set, dup_win) << "seq " << seq;
    if (dup_set) continue;
    if (seq == wm_set) {
      ++wm_set;
      while (!seen_set.empty() && *seen_set.begin() == wm_set) {
        seen_set.erase(seen_set.begin());
        ++wm_set;
      }
      ++wm_win;
      while (seen_win.erase(wm_win)) ++wm_win;
    } else {
      seen_set.insert(seq);
      seen_win.insert(seq);
    }
    ASSERT_EQ(wm_set, wm_win);
    ASSERT_EQ(seen_set.size(), seen_win.size());
  }
  ASSERT_NO_FATAL_FAILURE(expect_same(seen_win, seen_set));
  // The hole pins the watermark; every later seq costs one bit.
  EXPECT_EQ(wm_win, 777u);
  EXPECT_GT(seen_win.size(), 50000u);
  EXPECT_LE(seen_win.capacity() * 64, 2 * (next - 777) + 128);
}

TEST(IdWindow, EmptyWindowOwnsNoHeapMemory) {
  IdWindow w;
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.capacity(), 0u);
  // A span of two words stays inline.
  w.insert(64);
  w.insert(191);
  EXPECT_EQ(w.capacity(), 0u);
  // A wider span moves to the heap...
  w.insert(10000);
  EXPECT_GT(w.capacity(), 0u);
  EXPECT_EQ(w.size(), 3u);
  // ...and hands it back once the last member leaves.
  EXPECT_TRUE(w.erase(10000));
  EXPECT_TRUE(w.erase(64));
  EXPECT_GT(w.capacity(), 0u);
  EXPECT_TRUE(w.erase(191));
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.capacity(), 0u);
  EXPECT_FALSE(w.contains(191));

  // Refilled after emptying, it holds exactly the new members.
  for (std::uint64_t id = 0; id < 5000; id += 7) w.insert(id);
  EXPECT_EQ(w.size(), 715u);
  EXPECT_TRUE(w.contains(4998));
  EXPECT_FALSE(w.contains(64));
  EXPECT_TRUE(w.contains(0));
}

TEST(IdWindow, SlidingWindowKeepsOnlyItsLiveSpan) {
  // Ids inserted in order and retired from the front: the ring never holds
  // more than the live span, however far the window has travelled.
  IdWindow w;
  for (std::uint64_t id = 0; id < 1'000'000; ++id) {
    w.insert(id);
    if (id >= 500) w.erase(id - 500);
  }
  EXPECT_EQ(w.size(), 500u);
  EXPECT_FALSE(w.contains(1'000'000u - 501));
  EXPECT_TRUE(w.contains(1'000'000u - 500));
  EXPECT_LE(w.capacity(), 16u);
}

}  // namespace
}  // namespace hyp
