// Small helpers shared by the test binaries.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace hyp {

// Names such as "w3" for test threads, fibers and parameter instances.
// Spelled "w" + std::to_string(3), the concatenation inlines libstdc++'s
// insert-at-front, on which GCC 12 reports a false -Wrestrict (GCC bug
// 105329); appending to the prefix builds the same string without it.
template <typename N>
std::string numbered(std::string_view prefix, N n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

// Resident set size of this process, from /proc/self/statm.
inline std::size_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0;
  std::size_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

inline std::size_t rss_growth_since(std::size_t before) {
  const std::size_t now = rss_bytes();
  return now > before ? now - before : 0;
}

// Compares one run's golden `lines` with the file at `path`, matching each
// line by its first `key_width` tokens; '#' lines are comments. With
// HYP_UPDATE_GOLDENS set it re-records the file instead (`header`, then the
// lines) and skips the test. Call it last: a failed ASSERT or the skip ends
// only this helper.
inline void expect_golden(const std::string& path, const std::string& header,
                          const std::vector<std::string>& lines, int key_width) {
  if (std::getenv("HYP_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << header;
    for (const auto& line : lines) out << line << '\n';
    GTEST_SKIP() << "goldens re-recorded at " << path;
  }
  const auto key_of = [key_width](const std::string& line) {
    std::istringstream is(line);
    std::string key;
    std::string token;
    for (int i = 0; i < key_width && is >> token; ++i) {
      if (i > 0) key += ' ';
      key += token;
    }
    return key;
  };
  std::map<std::string, std::string> actual;
  for (const auto& line : lines) actual[key_of(line)] = line;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing goldens; record with HYP_UPDATE_GOLDENS=1";
  std::map<std::string, std::string> expected;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') expected[key_of(line)] = line;
  }
  ASSERT_EQ(expected.size(), actual.size()) << "golden file is stale";
  for (const auto& [key, want] : expected) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << "no run for golden point " << key;
    EXPECT_EQ(it->second, want) << path << " drifted at " << key << "\n  expected: " << want
                                << "\n  actual:   " << it->second;
  }
}

}  // namespace hyp
