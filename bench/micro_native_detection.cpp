// §4.2 on today's hardware: the real cost of the two detection mechanisms.
//
// The paper reports: "The cost of a page fault goes from 12 microseconds on
// the SCI cluster machines to 22 microseconds on the Myrinet cluster
// machines." This benchmark measures, with the native backend's actual
// SIGSEGV handler and mprotect calls:
//   * a full java_pf detection round trip (trap -> handler -> page install
//     -> mprotect -> resume),
//   * a bare mprotect(4 KiB) call,
//   * one java_ic in-line locality check (hit),
//   * one java_pf bare load (hit),
// and prints them next to the paper's constants. Absolute values shift with
// twenty-five years of hardware; the *ratio* (a fault costs thousands of
// checks) is the invariant behind Figures 1-5.
//
// Each row is the minimum, over kBatches timed batches, of a batch's mean
// time per operation, as benchmark/ times its microbenches: the minimum is
// the run least disturbed by the rest of the machine.
#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "native/native_dsm.hpp"

namespace {

using namespace hyp;
using namespace hyp::native;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kRegion = std::size_t{16} << 20;
constexpr int kBatches = 10;

// Makes `v` observable, so the compiler keeps the access that produced it.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

// `batch(n)` performs n operations and returns the time they took.
template <typename Batch>
double min_ns_per_op(int n, Batch batch) {
  double best = std::numeric_limits<double>::infinity();
  for (int b = 0; b < kBatches; ++b) {
    const Clock::duration took = batch(n);
    best = std::min(best, std::chrono::duration<double, std::nano>(took).count() / n);
  }
  return best;
}

// Times `n` runs of `op` in one loop.
template <typename Op>
Clock::duration timed_loop(int n, Op op) {
  const auto t0 = Clock::now();
  for (int i = 0; i < n; ++i) op();
  return Clock::now() - t0;
}

// Full detection round trip: re-protect the cached page, then touch it.
// Only the touch is timed.
double pf_fault_round_trip() {
  NativeDsm dsm(2, kRegion, Protocol::kJavaPf);
  NativeCtx ctx = dsm.make_ctx(1);
  const Gva a = dsm.alloc(0, 8);  // homed on node 0, accessed from node 1
  dsm.poke_home<std::int64_t>(a, 7);
  return min_ns_per_op(2'000, [&](int n) {
    Clock::duration took{};
    for (int i = 0; i < n; ++i) {
      dsm.invalidate_cache(ctx);  // mprotect(PROT_NONE) + drop replica
      const auto t0 = Clock::now();
      keep(ctx.get<std::int64_t>(a));  // SIGSEGV -> fetch
      took += Clock::now() - t0;
    }
    return took;
  });
}

double mprotect_page() {
  void* page = mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  int prot = PROT_NONE;
  const double ns = min_ns_per_op(20'000, [&](int n) {
    return timed_loop(n, [&] {
      keep(mprotect(page, 4096, prot));
      prot = (prot == PROT_NONE) ? PROT_READ | PROT_WRITE : PROT_NONE;
    });
  });
  munmap(page, 4096);
  return ns;
}

// One cached, remote-homed word read `n` times per batch under `protocol`.
double load_hit(Protocol protocol, int n) {
  NativeDsm dsm(2, kRegion, protocol);
  NativeCtx ctx = dsm.make_ctx(1);
  const Gva a = dsm.alloc(0, 8);
  (void)ctx.get<std::int64_t>(a);  // warm: page cached / open
  return min_ns_per_op(n, [&](int iters) {
    return timed_loop(iters, [&] { keep(ctx.get<std::int64_t>(a)); });
  });
}

void row(const char* name, double ns, const char* what) {
  std::printf("%-20s %12.2f  %s\n", name, ns, what);
}

}  // namespace

int main() {
  std::printf(
      "# micro_native_detection — real access-detection costs (paper §4.2)\n"
      "# paper constants: page fault = 22 us (200 MHz/Myrinet), 12 us (450 MHz/SCI);\n"
      "# the in-line check cost is a few CPU cycles. Each row: min over %d batches\n"
      "# of the mean ns per operation.\n\n",
      kBatches);
  std::printf("%-20s %12s\n", "Benchmark", "ns/op");
  const double fault = pf_fault_round_trip();
  row("BM_PfFaultRoundTrip", fault, "trap + handler + page copy + mprotect + resume");
  row("BM_MprotectPage", mprotect_page(), "one mprotect(4 KiB) syscall");
  const double check = load_hit(Protocol::kJavaIc, 1'000'000);
  row("BM_IcCheckHit", check, "java_ic locality check + load (cache hit)");
  row("BM_PfPlainLoadHit", load_hit(Protocol::kJavaPf, 10'000'000),
      "java_pf bare load (MMU does the check for free)");
  std::printf("\nfault/check ratio: %.0fx (paper era: 22 us / 50 ns ~ 440x)\n", fault / check);
  return 0;
}
