// Bitwise equivalence of the vector kernels in core/simd.h against their
// scalar reference implementations.
//
// This TU is compiled with the same fast-path flags as core/fast_forward.cpp
// (see tests/CMakeLists.txt), so on an AVX2-capable toolchain the public
// kernels here take the vector path while namespace scalar stays the plain
// loop -- the comparison is vector-vs-scalar for real, not scalar-vs-scalar.
// When the build has no vector ISA (or TEMPOFAIR_FORCE_SCALAR is set) the
// tests still pass trivially; the CI determinism job runs the suite both
// ways to cover each path of one binary.
#include "core/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "workload/rng.h"

namespace tempofair {
namespace {

constexpr std::uint64_t kSeed = 20260806;

// Sizes straddle the 4-lane vector width: empty, sub-vector, exact
// multiples, and tails of every residue.
const std::vector<std::size_t> kSizes = {0,  1,  2,  3,  4,  5,   7,  8,
                                         9,  12, 13, 15, 16, 17,  31, 64,
                                         65, 66, 67, 100, 127, 256, 1000};

std::vector<double> random_column(workload::Rng& rng, std::size_t n,
                                  double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " diverges at index " << i << ": " << got[i] << " vs "
        << want[i];
  }
}

TEST(SimdKernels, SubScalarMatchesReference) {
  workload::Rng rng(kSeed);
  for (const std::size_t n : kSizes) {
    const std::vector<double> base = random_column(rng, n, -10.0, 10.0);
    const double delta = rng.uniform(-2.0, 2.0);
    std::vector<double> got = base;
    std::vector<double> want = base;
    simd::sub_scalar(got.data(), n, delta);
    simd::scalar::sub_scalar(want.data(), n, delta);
    expect_bitwise_equal(got, want, "sub_scalar");
  }
}

TEST(SimdKernels, AdvanceMatchesReference) {
  workload::Rng rng(kSeed + 1);
  for (const std::size_t n : kSizes) {
    const std::vector<double> att0 = random_column(rng, n, 0.0, 5.0);
    const std::vector<double> rem0 = random_column(rng, n, 0.0, 20.0);
    std::vector<double> rates = random_column(rng, n, 0.0, 3.0);
    // Zero rates are common (priority policies); their bits must be
    // untouched by the advance (the F3 identity the kernel relies on).
    for (std::size_t i = 0; i < n; i += 3) rates[i] = 0.0;
    const double dt = rng.uniform(0.0, 1.5);
    std::vector<double> att_got = att0;
    std::vector<double> rem_got = rem0;
    std::vector<double> att_want = att0;
    std::vector<double> rem_want = rem0;
    simd::advance(att_got.data(), rem_got.data(), rates.data(), n, dt);
    simd::scalar::advance(att_want.data(), rem_want.data(), rates.data(), n,
                          dt);
    expect_bitwise_equal(att_got, att_want, "advance/attained");
    expect_bitwise_equal(rem_got, rem_want, "advance/remaining");
    for (std::size_t i = 0; i < n; i += 3) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(att_got[i]),
                std::bit_cast<std::uint64_t>(att0[i]))
          << "zero-rate job " << i << " moved";
    }
  }
}

TEST(SimdKernels, SubProductMatchesReference) {
  workload::Rng rng(kSeed + 2);
  for (const std::size_t n : kSizes) {
    const std::vector<double> rem0 = random_column(rng, n, 0.0, 20.0);
    const std::vector<double> rates = random_column(rng, n, 0.0, 3.0);
    const double dt = rng.uniform(0.0, 1.5);
    std::vector<double> got = rem0;
    std::vector<double> want = rem0;
    simd::sub_product(got.data(), rates.data(), n, dt);
    simd::scalar::sub_product(want.data(), rates.data(), n, dt);
    expect_bitwise_equal(got, want, "sub_product");
  }
}

TEST(SimdKernels, MinRatioMatchesReference) {
  workload::Rng rng(kSeed + 3);
  for (const std::size_t n : kSizes) {
    std::vector<double> rem = random_column(rng, n, 1e-12, 20.0);
    std::vector<double> rates = random_column(rng, n, 1e-9, 3.0);
    // Zero rates divide to +inf (remaining stays positive) and must drop
    // out of the min without a mask.
    for (std::size_t i = 1; i < n; i += 4) rates[i] = 0.0;
    const double got = simd::min_ratio(rem.data(), rates.data(), n);
    const double want = simd::scalar::min_ratio(rem.data(), rates.data(), n);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << "min_ratio diverges for n=" << n << ": " << got << " vs " << want;
  }
}

TEST(SimdKernels, MinRatioAllZeroRatesIsInfinite) {
  const std::vector<double> rem = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> rates(5, 0.0);
  EXPECT_EQ(simd::min_ratio(rem.data(), rates.data(), rem.size()),
            __builtin_inf());
  EXPECT_EQ(simd::min_ratio(rem.data(), rates.data(), 0),
            __builtin_inf());
}

// Hits of for_each_improving_arc as (index, label bits), with dist[i] set to
// the label as MinCostFlow's relaxation does.
using ArcHits = std::vector<std::pair<std::size_t, std::uint64_t>>;

struct ArcColumns {
  std::vector<double> cap, cost, pot, dist;
};

template <class Scan>
ArcHits scan_hits(ArcColumns& c, std::size_t offset, std::size_t n, double pu,
                  double d, double eps, double cap_eps, Scan&& scan) {
  ArcHits hits;
  double* dist = c.dist.data() + offset;
  scan(c.cap.data() + offset, c.cost.data() + offset, c.pot.data() + offset,
       dist, n, pu, d, eps, cap_eps, [&](std::size_t i, double label) {
         hits.emplace_back(i, std::bit_cast<std::uint64_t>(label));
         dist[i] = label;
       });
  return hits;
}

TEST(SimdKernels, ImprovingArcScanMatchesReference) {
  constexpr double kCapEps = 1e-9;
  constexpr double kEps = 0x1p-10;  // dyadic, so dist - eps can be exact
  const double inf = __builtin_inf();
  workload::Rng rng(kSeed + 4);
  std::size_t total_hits = 0;
  std::size_t boundary_lanes = 0;
  std::size_t negative_zero_labels = 0;
  for (std::size_t n = 0; n <= 13; ++n) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      for (int trial = 0; trial < 40; ++trial) {
        // trial % 4 == 3 runs with pu = d = -0.0: a reduced cost of
        // (-0.0 + -0.0) - 0.0 = -0.0 then yields the label -0.0 only if the
        // clamp keeps -0.0 as std::max(x, 0.0) does.
        const bool negative_zero = trial % 4 == 3;
        const double pu = negative_zero ? -0.0 : rng.uniform(0.0, 4.0);
        const double d = negative_zero ? -0.0 : 0.25 * rng.uniform_int(0, 8);
        ArcColumns c;
        const std::size_t len = offset + n;
        c.cap.resize(len);
        c.cost.resize(len);
        c.pot.resize(len);
        c.dist.resize(len);
        for (std::size_t j = 0; j < len; ++j) {
          c.cap[j] = rng.uniform(0.0, 2.0);
          c.cost[j] = rng.uniform(0.0, 3.0);
          c.pot[j] = rng.uniform(0.0, 6.0);
          c.dist[j] = rng.uniform(0.0, 8.0);
          // trial % 4 == 2: every lane open and unreached, so every lane
          // hits.
          if (trial % 4 == 2) {
            c.cap[j] = 1.0;
            c.dist[j] = inf;
            continue;
          }
          const std::int64_t kind = rng.uniform_int(0, 9);
          switch (kind) {
            case 0:
              c.cap[j] = kCapEps;  // saturated: closed
              c.dist[j] = inf;
              break;
            case 1:
              c.cap[j] = std::nextafter(kCapEps, inf);  // open
              c.dist[j] = inf;
              break;
            case 2:
              c.cap[j] = __builtin_nan("");  // !(NaN <= eps): open
              c.dist[j] = inf;
              break;
            case 3:  // reduced cost exactly +0 (or -0 below)
              c.cost[j] = negative_zero ? -0.0 : 0.5 * rng.uniform_int(0, 4);
              c.pot[j] = negative_zero ? 0.0 : c.cost[j] + pu;
              c.dist[j] = inf;
              break;
            case 4:  // tiny negative reduced cost, clamped to 0
              c.pot[j] = std::nextafter(c.cost[j] + pu, inf);
              c.dist[j] = inf;
              break;
            case 5:  // label exactly at dist - eps: no hit
            case 6:  // one ULP above: a hit
              c.cost[j] = 0.5 * rng.uniform_int(0, 4);
              c.pot[j] = 0.0;
              if (!negative_zero) {
                const double label = d + std::max(c.cost[j] + pu, 0.0);
                c.dist[j] = label + kEps;
                if (c.dist[j] - kEps != label) break;  // not exact
                ++boundary_lanes;
                if (kind == 6) c.dist[j] = std::nextafter(c.dist[j], inf);
              }
              break;
            default:
              break;
          }
        }
        ArcColumns vec = c;
        ArcColumns ref = c;
        const auto vector_scan = [](auto&&... args) {
          simd::for_each_improving_arc(args...);
        };
        const auto scalar_scan = [](auto&&... args) {
          simd::scalar::for_each_improving_arc(args...);
        };
        const ArcHits got =
            scan_hits(vec, offset, n, pu, d, kEps, kCapEps, vector_scan);
        const ArcHits want =
            scan_hits(ref, offset, n, pu, d, kEps, kCapEps, scalar_scan);
        EXPECT_EQ(got, want) << "n=" << n << " offset=" << offset
                             << " trial=" << trial;
        expect_bitwise_equal(vec.dist, ref.dist, "for_each_improving_arc");
        if (trial % 4 == 2) {
          EXPECT_EQ(want.size(), n) << "every lane must hit";
        }
        total_hits += want.size();
        for (const auto& hit : want) {
          negative_zero_labels +=
              hit.second == std::bit_cast<std::uint64_t>(-0.0);
        }
      }
    }
  }
  EXPECT_GT(total_hits, 0u);
  EXPECT_GT(boundary_lanes, 0u);
  EXPECT_GT(negative_zero_labels, 0u);
}

TEST(SimdKernels, ConfigIsConsistent) {
  // vector_active() is what the perf harness reports; it must agree with
  // the compile-time width and the env knob.
  EXPECT_EQ(simd::vector_active(),
            simd::kVectorWidth > 1 && !simd::force_scalar());
#if defined(TEMPOFAIR_SIMD_AVX2)
  EXPECT_EQ(simd::kVectorWidth, 4u);
#else
  EXPECT_EQ(simd::kVectorWidth, 1u);
#endif
}

}  // namespace
}  // namespace tempofair
