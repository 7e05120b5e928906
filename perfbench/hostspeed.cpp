#include "hostspeed.h"

#include <chrono>
#include <vector>

namespace perfbench {

namespace {

// Dependent integer division (Euclid, as in exact rational arithmetic) and
// small allocations.  The kernel stays in the L1 and L2 caches: a part that
// missed them timed the other jobs' cache use, not the processor's speed,
// and added its own noise.
constexpr int kRounds = 20000;

}  // namespace

HostSpeed::HostSpeed() { kernel(); }

double HostSpeed::sample() {
  const auto start = std::chrono::steady_clock::now();
  kernel();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void HostSpeed::kernel() {
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  std::vector<std::vector<std::uint64_t>> bag(64);
  for (int r = 0; r < kRounds; ++r) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t a = x | 1;
    std::uint64_t b = (x >> 20) | 1;
    while (b != 0) {
      const std::uint64_t t = a % b;
      a = b;
      b = t;
    }
    acc += a;
    bag[x & 63].assign((x >> 8) & 31, acc);
  }
  sink_ += acc;
}

}  // namespace perfbench
