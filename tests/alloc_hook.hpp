// Counting replacement of the global operator new/delete, for the test
// binaries that assert an allocation-free steady state; allocs() reads the
// count. The replacements are ordinary definitions, so include this from
// exactly one source file of such a binary. It merely counts: behavior is
// unchanged, and the binary's other tests are unaffected.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::uint64_t allocs() { return g_alloc_count.load(std::memory_order_relaxed); }
}  // namespace

// Out of line, all six: where one of them is inlined next to an inlined
// libstdc++ allocation, GCC 12 sees malloc() or free() meet the other
// operator and reports -Wmismatched-new-delete, though the pairs match.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
