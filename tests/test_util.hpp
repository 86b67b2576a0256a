// Small helpers shared by the test binaries.
#pragma once

#include <unistd.h>

#include <cstddef>
#include <fstream>
#include <string>
#include <string_view>

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

}  // namespace hyp
